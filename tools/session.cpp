#include "session.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>

#include "obs/event_log.hpp"
#include "obs/run_registry.hpp"
#include "util/failpoint.hpp"
#include "util/retry.hpp"
#include "util/telemetry.hpp"
#include "util/trace_writer.hpp"

namespace dalut::tools {

namespace {

// The RunControl outlives every local so the signal handler can reach it;
// request_cancel() is a relaxed atomic store, hence async-signal-safe.
util::RunControl g_control;

extern "C" void handle_stop_signal(int) { g_control.request_cancel(); }

}  // namespace

bool write_artifact(const std::string& path, const char* what,
                    const std::function<void(std::ostream&)>& body) {
  std::ofstream out(path);
  if (out) {
    body(out);
    out.flush();
  }
  if (!out) {
    std::fprintf(stderr, "io error: cannot write %s to '%s': %s\n", what,
                 path.c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

int run_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const ExitError& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return error.code();
  } catch (const std::invalid_argument& error) {
    // Malformed inputs (truth tables, manifests, configurations,
    // checkpoints, option values) raise invalid_argument with line-anchored
    // messages.
    std::fprintf(stderr, "parse error: %s\n", error.what());
    return kExitParse;
  } catch (const util::IoError& error) {
    // Fatal (or retry-exhausted) I/O; the message already names the path.
    std::fprintf(stderr, "io error: %s (errno %d%s%s)\n", error.what(),
                 error.error_code(), error.site().empty() ? "" : ", site ",
                 error.site().c_str());
    return kExitIo;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fatal: %s\n", error.what());
    return kExitFatal;
  }
}

int exit_code_of(util::RunStatus status) {
  switch (status) {
    case util::RunStatus::kDeadlineExpired:
      return kExitDeadline;
    case util::RunStatus::kCancelled:
      return kExitCancelled;
    case util::RunStatus::kCompleted:
      break;
  }
  return kExitOk;
}

void add_session_options(util::CliParser& cli) {
  cli.add_option("deadline", "",
                 "wall-clock budget ('30s', '5m', '1h'); on expiry the "
                 "best-so-far result is emitted and exit code is 4");
  cli.add_option("metrics-out", "",
                 "write the dalut-metrics-v1 JSON artifact (run header, "
                 "metrics snapshot, best-error trajectory) here");
  cli.add_option("trace-out", "",
                 "write a Chrome trace-event JSON of the run here, loadable "
                 "in Perfetto or chrome://tracing (enables span tracing)");
  cli.add_option("listen", "",
                 "serve GET /metrics (Prometheus), /healthz, and /runs over "
                 "HTTP while the run is live; host:port, :port, or port "
                 "(host defaults to 127.0.0.1, port 0 binds an ephemeral "
                 "port; the bound endpoint is printed to stderr)");
  cli.add_option("events-out", "",
                 "write the dalut-events v1 structured JSONL lifecycle log "
                 "here (job/checkpoint/cache/retry/failpoint events; "
                 "bounded queue, never blocks the run)");
  cli.add_option("failpoints", "",
                 "arm deterministic I/O fault injection: "
                 "\"site=error[@trigger]\" entries, comma-separated "
                 "(also read from DALUT_FAILPOINTS; see --list-failpoints)");
  cli.add_flag("list-failpoints",
               "print every registered fault-injection site and exit");
}

bool parse_session_cli(util::CliParser& cli, int argc, char** argv) {
  if (!cli.parse(argc, argv)) return false;
  if (!cli.flag("list-failpoints")) return true;
  for (const auto& site : util::fp::all_sites()) {
    std::printf("%s\n", site.c_str());
  }
  return false;
}

Session::Session(const util::CliParser& cli, std::FILE* notes, Scope scope)
    : notes_(notes) {
  if (scope == Scope::kFull) {
    try {
      util::fp::configure_from_env();
      if (const auto spec = cli.str("failpoints"); !spec.empty()) {
        util::fp::configure(spec);
      }
    } catch (const std::invalid_argument& error) {
      throw ExitError(kExitUsage,
                      std::string("error: --failpoints/DALUT_FAILPOINTS: ") +
                          error.what());
    }
    if (const auto deadline = cli.str("deadline"); !deadline.empty()) {
      g_control.set_deadline_after(
          util::parse_duration(deadline, "--deadline"));
    }
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);

    // Telemetry is write-only for the searches, so enabling it cannot
    // change the emitted settings or MEDs (docs/observability.md). The
    // event log and the exporter feed on the counters, so they force the
    // registry on too.
    metrics_out_ = cli.str("metrics-out");
    trace_out_ = cli.str("trace-out");
    if (!metrics_out_.empty()) util::telemetry::set_metrics_enabled(true);
    if (!trace_out_.empty()) util::telemetry::set_tracing_enabled(true);
    if (const auto path = cli.str("events-out"); !path.empty()) {
      util::telemetry::set_metrics_enabled(true);
      try {
        obs::EventLog::instance().open(path);
      } catch (const std::exception& error) {
        throw ExitError(kExitIo, std::string("io error: ") + error.what());
      }
    }
  }

  const auto listen_spec = cli.str("listen");
  if (listen_spec.empty()) return;
  util::telemetry::set_metrics_enabled(true);
  obs::RunRegistry::instance().set_enabled(true);
  try {
    const auto [host, port] = obs::parse_listen_spec(listen_spec);
    obs::ExporterOptions options;
    options.host = host;
    options.port = port;
    options.control = &g_control;
    exporter_.start(options);
  } catch (const std::invalid_argument& error) {
    obs::EventLog::instance().close();
    throw ExitError(kExitUsage, std::string("error: ") + error.what());
  } catch (const std::exception& error) {
    obs::EventLog::instance().close();
    throw ExitError(kExitIo, std::string("io error: ") + error.what());
  }
  // Grep-able and flushed before the run starts, so a harness scraping an
  // ephemeral port (--listen 127.0.0.1:0) can find it immediately.
  std::fprintf(stderr,
               "observability: listening on http://%s (/metrics, /healthz, "
               "/runs)\n",
               exporter_.endpoint().c_str());
  std::fflush(stderr);
}

Session::~Session() {
  exporter_.stop();
  obs::EventLog::instance().close();
}

util::RunControl& Session::control() { return g_control; }

int Session::finish(const std::function<void(std::ostream&)>& header,
                    const std::function<void(std::ostream&)>& trajectory) {
  // Stop the producers of the obs.* counters first so the snapshot below
  // holds their final values (event log: written/dropped).
  exporter_.stop();
  obs::EventLog::instance().close();

  int code = kExitOk;
  if (!metrics_out_.empty()) {
    if (write_artifact(metrics_out_, "metrics", [&](std::ostream& out) {
          out << "{\n  \"schema\": \"dalut-metrics-v1\",\n";
          header(out);
          out << ",\n  \"metrics\":\n";
          util::telemetry::write_metrics_json(
              out, util::telemetry::snapshot_metrics(), 2);
          out << ",\n  \"trajectory\":\n";
          trajectory(out);
          out << "\n}\n";
        })) {
      std::fprintf(notes_, "wrote metrics to %s\n", metrics_out_.c_str());
    } else {
      code = kExitIo;
    }
  }
  if (!trace_out_.empty()) {
    if (write_artifact(trace_out_, "trace", [](std::ostream& out) {
          util::telemetry::write_chrome_trace(out);
        })) {
      std::fprintf(notes_, "wrote trace to %s\n", trace_out_.c_str());
    } else {
      code = kExitIo;
    }
  }
  // Telemetry for the injection harness: which sites were hit and fired.
  if (util::fp::active()) {
    std::fprintf(stderr, "failpoints:\n%s", util::fp::dump().c_str());
  }
  return code;
}

}  // namespace dalut::tools
