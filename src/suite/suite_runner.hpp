// Sharded suite execution: every job of a manifest runs through one shared
// ThreadPool, with per-job run control, checkpointing, and telemetry
// multiplexed over the PR-1..4 single-run machinery.
//
// Scheduling: jobs shard across the pool via parallel_for (manifest order,
// deterministic chunking), and each job's search internally reuses the same
// pool through nested parallel_for calls — a 4-job suite on 8 workers keeps
// all 8 busy, first across jobs, then inside the stragglers. Job results
// are bit-deterministic at any worker count (the PR-1 engine guarantee), so
// the deterministic report below is byte-identical for `-j1` and `-j8`.
//
// Resume: with a checkpoint directory, each unfinished job periodically
// snapshots to "<dir>/<job-name>.ck" (atomic, crash-safe). A killed suite
// re-run serves finished jobs from the result cache and resumes unfinished
// ones from their checkpoints bit-identically; completed jobs delete their
// checkpoint (and any stale *.tmp beside it).
//
// Reports: write_suite_csv emits only fields that are pure functions of the
// manifest and the deterministic results — no wall-clock, no cache/resume
// provenance — so an interrupted-and-resumed run and an uninterrupted run
// produce byte-identical CSVs, and so does an all-cache-hits re-run.
// Provenance and timing live in the JSON jobs section and the metrics
// registry instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/algorithm_common.hpp"
#include "core/bit_cost.hpp"
#include "core/checkpoint.hpp"
#include "core/input_distribution.hpp"
#include "core/table_io.hpp"
#include "suite/manifest.hpp"
#include "suite/result_cache.hpp"
#include "util/retry.hpp"
#include "util/run_control.hpp"
#include "util/thread_pool.hpp"

namespace dalut::suite {

struct SuiteOptions {
  util::ThreadPool* pool = nullptr;  ///< required; shared by jobs and suite
  /// Master control: a deadline or cancel here fans out to every job's
  /// chained per-job control at its next poll boundary.
  util::RunControl* control = nullptr;
  std::string cache_dir;           ///< "" = result cache off
  std::size_t cache_max_entries = 0;  ///< 0 = unbounded
  std::string checkpoint_dir;      ///< "" = per-job checkpoints off
  unsigned checkpoint_every = 2;   ///< bit-steps between job checkpoints
  /// Human-facing progress forwarding, labeled with the job name; throttled
  /// per job by `progress_interval` (at-completion reports always pass).
  std::function<void(const std::string&, const util::RunProgress&)> progress;
  std::chrono::nanoseconds progress_interval = std::chrono::seconds(5);
  /// When non-empty, each job's resolved input truth table (file-based or
  /// generated from a built-in benchmark) is exported here atomically as
  /// "<job-name>.dalut" (text) or "<job-name>.dalutb" (binary container,
  /// per `table_encoding`) — the exact bits the job optimized, re-runnable
  /// standalone via `dalut_opt --table`.
  std::string dump_tables_dir;
  core::TableEncoding table_encoding = core::TableEncoding::kText;
  /// Per-job fault isolation: a job failing with a *retryable* I/O error
  /// (util::errno_retryable) is re-run up to job_retry.max_attempts times
  /// before being quarantined as `failed`; deterministic errors fail on the
  /// first attempt. Sibling jobs always run to completion either way.
  util::RetryPolicy job_retry;
};

/// One delivered progress report, labeled with its job (the suite analogue
/// of telemetry::TrajectoryRow).
struct SuiteTrajectoryRow {
  std::string job;
  double elapsed_seconds = 0.0;  ///< since run_suite started
  std::string stage;
  unsigned round = 0;
  unsigned bit = 0;
  std::size_t steps_done = 0;
  std::size_t steps_total = 0;
  double best_error = 0.0;
};

struct JobOutcome {
  SuiteJob job;
  std::uint64_t key = 0;      ///< result-cache key
  util::RunStatus status = util::RunStatus::kCompleted;
  bool started = false;       ///< false: the master tripped before this job
  bool from_cache = false;    ///< served from the result cache
  bool resumed = false;       ///< restored from a checkpoint
  std::string error;          ///< non-empty: the job failed with this error
  ResultRecord record;        ///< valid when started && error.empty()
};

struct SuiteReport {
  std::vector<JobOutcome> outcomes;  ///< manifest order
  std::vector<SuiteTrajectoryRow> trajectory;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// kCompleted unless the master control stopped the suite early.
  util::RunStatus status = util::RunStatus::kCompleted;
  double runtime_seconds = 0.0;
  bool any_failed = false;
};

/// Executes every job of `manifest` on `options.pool`. Never throws for
/// per-job failures (they land in JobOutcome::error); throws
/// std::invalid_argument / std::runtime_error only for suite-level
/// misconfiguration (no pool, unusable cache/checkpoint directory).
SuiteReport run_suite(const Manifest& manifest, const SuiteOptions& options);

// ---- One job -------------------------------------------------------------
// The per-job steps run_suite takes, callable on their own: dalut_opt runs
// its single search through these, so a one-job suite and a dalut_opt call
// with the same parameters land on the same result.

/// The function `job` optimizes: its truth-table file (read per `mode`) or
/// its built-in benchmark at `job.width`. Throws std::invalid_argument for
/// an unknown benchmark.
core::MultiOutputFunction load_job_function(
    const SuiteJob& job, core::TableLoadMode mode = core::TableLoadMode::kAuto);

/// The objective a `metric` field names (med unless "mse" or "er").
core::CostMetric metric_of(const std::string& name);

/// `job.bound`, or 9/16 of `num_inputs` (at least 2, but always below
/// `num_inputs`) when it is 0.
unsigned effective_bound(const SuiteJob& job, unsigned num_inputs);

/// The newest loadable generation of the search checkpoint at `path`
/// (`path`, then "<path>.1", emitting checkpoint.fallback); nullopt when
/// none loads.
std::optional<core::LoadedCheckpoint> load_job_checkpoint(
    const std::string& path);

/// Runs the BS-SA (or, for algorithm=dalta, DALTA) search of `job` on `g`.
/// With a non-empty `checkpoint_path` the search snapshots there every
/// `checkpoint_every` bit-steps (best-effort: a failed save warns and the
/// search goes on) and deletes the checkpoint once it completes. `resume`
/// continues an earlier run; a checkpoint of different parameters throws
/// std::invalid_argument, as does a bound-set size outside [1, inputs).
core::DecompositionResult run_search_job(
    const SuiteJob& job, const core::MultiOutputFunction& g,
    const core::InputDistribution& dist, util::ThreadPool* pool,
    util::RunControl& control, const std::string& checkpoint_path,
    unsigned checkpoint_every, const core::SearchCheckpoint* resume);

// ---- Reports -------------------------------------------------------------

/// Deterministic aggregate report: one CSV row per job, manifest order,
/// doubles at exact 17-digit round-trip precision. Contains no wall-clock
/// or provenance fields (see the file comment).
void write_suite_csv(std::ostream& out, const SuiteReport& report);

/// The per-job section of the dalut-metrics-v1 artifact: a JSON array with
/// provenance (cache/resume), timing, and metrics per job. `indent` spaces
/// prefix every line.
void write_suite_jobs_json(std::ostream& out, const SuiteReport& report,
                           int indent = 0);

/// The suite trajectory (job-labeled progress rows) as a JSON array.
void write_suite_trajectory_json(std::ostream& out, const SuiteReport& report,
                                 int indent = 0);

}  // namespace dalut::suite
