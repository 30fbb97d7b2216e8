// Reproduces Figure 7: determining the number of Principal Components —
// cumulative explained variance vs component count, with the 95% cut
// (paper: 18 PCs).
#include <iostream>

#include "bench/common.hpp"
#include "util/strings.hpp"

int main() {
  using namespace flare;
  const bench::Environment env = bench::make_environment();
  const core::AnalysisResult& analysis = env.pipeline->analysis();

  bench::print_banner("Figure 7", "Cumulative explained variance of the PCs");
  std::cout << "components -> cumulative variance\n"
            << "  PCs -> explained variance\n";
  const std::size_t show =
      std::min<std::size_t>(analysis.pca.dimension(), analysis.num_components + 7);
  for (std::size_t k = 1; k <= show; ++k) {
    std::cout << "  " << util::format_double(static_cast<double>(k), 0) << ", "
              << util::format_double(
                     analysis.pca.cumulative_explained_variance(k), 3)
              << '\n';
  }
  std::printf("\nselected: %zu PCs explain %.1f%% of the variance "
              "(target 95%%; paper: 18 PCs)\n",
              analysis.num_components,
              100.0 * analysis.pca.cumulative_explained_variance(
                          analysis.num_components));
  return 0;
}
