// Host facts the benchmark stamps into every result and the process-memory
// probes behind peak_rss_mb.
#pragma once

#include <string>
#include <sys/types.h>

namespace flarebench {

/// Resets this process's peak-RSS watermark (Linux clear_refs "5") so the
/// next peak_rss_mib() reading covers only what follows. Returns false where
/// the kernel refuses; the reading then covers the whole process lifetime.
bool reset_peak_rss();

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB; 0 when it
/// cannot be read.
[[nodiscard]] double peak_rss_mib(pid_t pid = 0);

/// Filesystem type holding `path` (ext4, overlayfs, tmpfs, ...).
[[nodiscard]] std::string filesystem_of(const std::string& path);

/// Wall time in ms of a fixed, allocation-free arithmetic loop (~20 ms on
/// the build host). It does the same work on every commit, so a shift in it
/// between runs is the host's speed, not the code's.
[[nodiscard]] double host_probe_ms();

[[nodiscard]] std::string compiler_id();
[[nodiscard]] unsigned hardware_threads();

}  // namespace flarebench
