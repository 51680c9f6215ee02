// The run session shared by dalut_opt, dalut_suite and dalut_stream: one
// RAII object for the failpoints, run control, observability plane and
// telemetry artifacts around a tool's run, plus the exit-code table every
// tool maps its failures to (docs/robustness.md, "Tool session").
//
// Set-up, in order: arm failpoints from --failpoints / DALUT_FAILPOINTS,
// apply --deadline, route SIGINT/SIGTERM to the session's RunControl, turn
// on metrics/tracing, open --events-out, start the --listen exporter and
// print its endpoint. Teardown (finish()), in order: stop the exporter,
// close the event log, write the dalut-metrics-v1 envelope and the Chrome
// trace, dump the failpoint counts. A session destroyed without finish()
// (an early return or an exception) still stops the exporter and closes
// the event log, in that order.
#pragma once

#include <cstdio>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "obs/exporter.hpp"
#include "util/cli.hpp"
#include "util/run_control.hpp"

namespace dalut::tools {

constexpr int kExitOk = 0;
constexpr int kExitFatal = 1;
// CliParser also exits 2 directly for unknown options.
constexpr int kExitUsage = 2;
constexpr int kExitParse = 3;
constexpr int kExitDeadline = 4;
constexpr int kExitCancelled = 5;
constexpr int kExitIo = 6;

/// A failure that carries its own exit code; run_main prints the message
/// verbatim.
class ExitError : public std::runtime_error {
 public:
  ExitError(int code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  int code() const noexcept { return code_; }

 private:
  int code_;
};

/// Runs a tool body and maps what escapes it to the exit-code table:
/// ExitError -> its code, std::invalid_argument -> 3 (parse error),
/// util::IoError -> 6, any other exception -> 1.
int run_main(const std::function<int()>& body);

/// Exit code of a run that stopped early with a valid best-so-far result:
/// 4 (deadline), 5 (cancelled), or 0 when it completed.
int exit_code_of(util::RunStatus status);

/// Streams `body(out)` into the file `path`. An open or write failure is
/// reported on stderr, naming `what`, the path and errno; returns false.
bool write_artifact(const std::string& path, const char* what,
                    const std::function<void(std::ostream&)>& body);

/// Registers the session options: --failpoints, --list-failpoints,
/// --deadline, --metrics-out, --trace-out, --listen, --events-out.
void add_session_options(util::CliParser& cli);

/// Parses argv. Returns false when the tool should exit 0 at once: after
/// --help, or after --list-failpoints printed every registered site.
bool parse_session_cli(util::CliParser& cli, int argc, char** argv);

class Session {
 public:
  enum class Scope {
    kFull,        ///< every option of add_session_options
    kListenOnly,  ///< just a tool-registered --listen; signals untouched
  };

  /// Sets the session up from `cli` (see the file comment). "wrote ..."
  /// notes go to `notes`. Throws ExitError: 2 for a malformed
  /// --failpoints or --listen, 6 when --events-out cannot be opened or the
  /// exporter cannot bind.
  Session(const util::CliParser& cli, std::FILE* notes,
          Scope scope = Scope::kFull);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The run's master control: --deadline, SIGINT/SIGTERM, /healthz.
  util::RunControl& control();
  bool listening() const { return exporter_.running(); }

  /// Tears the session down in order. The dalut-metrics-v1 envelope holds
  /// what `header` writes (the tool's top-level sections, e.g. `"run":
  /// {...}`), the metrics snapshot, and the array `trajectory` writes.
  /// Returns kExitOk, or kExitIo when an artifact could not be written.
  int finish(const std::function<void(std::ostream&)>& header,
             const std::function<void(std::ostream&)>& trajectory);

 private:
  std::FILE* notes_;
  std::string metrics_out_;
  std::string trace_out_;
  obs::MetricsExporter exporter_;
};

}  // namespace dalut::tools
