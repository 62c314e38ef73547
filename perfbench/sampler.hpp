// perfbench/sampler.hpp
//
// Sampled self time per module for the traced run: a SIGPROF timer records
// the interrupted program counter and its call stack; afterwards addr2line
// symbolises every distinct address and each sample is credited to the
// module owning the innermost frame whose source file lies under src/.
#pragma once

#include <map>
#include <string>

namespace perfbench {

/// Modules that self time is reported for, in output order ("other" takes
/// samples with no frame under src/ and files outside these modules).
extern const char* const kModules[12];

/// Start sampling this process's CPU time every `interval_us`.
void sampler_start(int interval_us);
/// Stop sampling; samples taken so far are kept.
void sampler_stop();
/// Stacks are recorded only while this is on; other timer ticks are just
/// counted. Workloads switch it on for their timed phases (set-up, run,
/// analysis), so the benchmark's own checks and teardown stay out.
void sampler_record(bool on);
/// Samples recorded since the process started.
[[nodiscard]] std::size_t sampler_count();
/// Timer ticks since the process started, recorded or not.
[[nodiscard]] std::size_t sampler_ticks();

/// Credit the recorded samples to modules: module -> share of samples.
/// `src_dir` is the absolute path of the program's src/ directory. Returns
/// an empty map when symbolisation fails.
[[nodiscard]] std::map<std::string, double> sampler_shares(
    const std::string& src_dir);

}  // namespace perfbench
