#include "metrics/metric_database.hpp"

#include <gtest/gtest.h>

namespace flare::metrics {
namespace {

MetricCatalog tiny_catalog() {
  std::vector<MetricInfo> metrics;
  for (const char* name : {"Machine.A", "Machine.B", "HP.A"}) {
    MetricInfo m;
    m.index = metrics.size();
    m.name = name;
    m.base_name = std::string(name).substr(std::string(name).find('.') + 1);
    metrics.push_back(std::move(m));
  }
  return MetricCatalog(std::move(metrics));
}

MetricRow row(std::size_t id, std::vector<double> values, double weight = 1.0) {
  MetricRow r;
  r.scenario_id = id;
  r.scenario_key = "DA:" + std::to_string(id + 1);
  r.observation_weight = weight;
  r.values = std::move(values);
  return r;
}

TEST(MetricDatabase, AddAndRetrieveRows) {
  const MetricCatalog cat = tiny_catalog();
  MetricDatabase db(cat);
  db.add_row(row(0, {1, 2, 3}));
  db.add_row(row(1, {4, 5, 6}, 2.5));
  EXPECT_EQ(db.num_rows(), 2u);
  EXPECT_EQ(db.num_metrics(), 3u);
  EXPECT_EQ(db.row(1).scenario_key, "DA:2");
  EXPECT_DOUBLE_EQ(db.row(1).observation_weight, 2.5);
  EXPECT_THROW((void)db.row(2), std::invalid_argument);
}

TEST(MetricDatabase, RejectsWrongArity) {
  const MetricCatalog cat = tiny_catalog();
  MetricDatabase db(cat);
  EXPECT_THROW(db.add_row(row(0, {1, 2})), std::invalid_argument);
  EXPECT_THROW(db.add_row(row(0, {1, 2, 3, 4})), std::invalid_argument);
}

TEST(MetricDatabase, ToMatrixPreservesLayout) {
  const MetricCatalog cat = tiny_catalog();
  MetricDatabase db(cat);
  db.add_row(row(0, {1, 2, 3}));
  db.add_row(row(1, {4, 5, 6}));
  const linalg::Matrix m = db.to_matrix();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
}

TEST(MetricDatabase, ToMatrixOnEmptyThrows) {
  const MetricCatalog cat = tiny_catalog();
  const MetricDatabase db(cat);
  EXPECT_THROW(db.to_matrix(), std::invalid_argument);
}

TEST(MetricDatabase, ColumnByName) {
  const MetricCatalog cat = tiny_catalog();
  MetricDatabase db(cat);
  db.add_row(row(0, {1, 2, 3}));
  db.add_row(row(1, {4, 5, 6}));
  EXPECT_EQ(db.column("Machine.B"), (std::vector<double>{2, 5}));
  EXPECT_THROW(db.column("Nope"), std::invalid_argument);
}

TEST(MetricDatabase, WeightsInRowOrder) {
  const MetricCatalog cat = tiny_catalog();
  MetricDatabase db(cat);
  db.add_row(row(0, {1, 2, 3}, 0.5));
  db.add_row(row(1, {4, 5, 6}, 1.5));
  EXPECT_EQ(db.weights(), (std::vector<double>{0.5, 1.5}));
}

TEST(MetricDatabase, WrongArityMessageNamesTheCounts) {
  const MetricCatalog cat = tiny_catalog();
  MetricDatabase db(cat);
  try {
    db.add_row(row(0, {1, 2}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 values"), std::string::npos) << what;
    EXPECT_NE(what.find("3 metrics"), std::string::npos) << what;
  }
}

TEST(MetricDatabase, AppendBulkAddsRowsInOrder) {
  const MetricCatalog cat = tiny_catalog();
  MetricDatabase db(cat);
  db.add_row(row(0, {1, 2, 3}));
  MetricDatabase batch(cat);
  batch.add_row(row(1, {4, 5, 6}, 2.0));
  batch.add_row(row(2, {7, 8, 9}));
  db.append(batch);
  EXPECT_EQ(db.num_rows(), 3u);
  EXPECT_EQ(db.row(1).scenario_key, "DA:2");
  EXPECT_DOUBLE_EQ(db.row(1).observation_weight, 2.0);
  EXPECT_DOUBLE_EQ(db.to_matrix()(2, 0), 7.0);
}

TEST(MetricDatabase, AppendRejectsMismatchedCatalogs) {
  const MetricCatalog cat = tiny_catalog();
  MetricDatabase db(cat);
  const MetricDatabase standard;  // different schema entirely
  EXPECT_THROW(db.append(standard), std::invalid_argument);
}

TEST(MetricDatabase, SetObservationWeights) {
  const MetricCatalog cat = tiny_catalog();
  MetricDatabase db(cat);
  db.add_row(row(0, {1, 2, 3}));
  db.add_row(row(1, {4, 5, 6}));
  db.set_observation_weights({0.25, 0.75});
  EXPECT_EQ(db.weights(), (std::vector<double>{0.25, 0.75}));
  EXPECT_THROW(db.set_observation_weights({1.0}), std::invalid_argument);
  EXPECT_THROW(db.set_observation_weights({1.0, -1.0}), std::invalid_argument);
}

TEST(MetricDatabase, DefaultsToStandardCatalog) {
  const MetricDatabase db;
  EXPECT_EQ(db.num_metrics(), MetricCatalog::standard().size());
}

}  // namespace
}  // namespace flare::metrics
