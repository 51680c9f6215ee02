#include "suite/manifest.hpp"

#include <cerrno>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/format.hpp"
#include "core/serialize_detail.hpp"
#include "util/retry.hpp"

namespace dalut::suite {

namespace {

using core::detail::fail_at;
using core::detail::token_excerpt;

constexpr core::format::FormatSpec kFormat{"dalut-manifest", 1, 1};
constexpr std::size_t kMaxJobs = 4096;

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

unsigned parse_field_unsigned(const std::string& value, std::size_t line,
                              const char* what, std::uint64_t max) {
  return static_cast<unsigned>(
      core::detail::parse_unsigned(value, line, what, max));
}

double parse_field_double(const std::string& value, std::size_t line,
                          const char* what) {
  return core::detail::parse_double(value, line, what);
}

/// Applies one `key=value` token to `job`. Validation that spans fields
/// (algorithm/arch compatibility) happens after the whole line is read.
void apply_field(SuiteJob& job, const std::string& key,
                 const std::string& value, std::size_t line) {
  if (key == "benchmark") {
    job.benchmark = value;
  } else if (key == "table") {
    job.table = value;
  } else if (key == "width") {
    job.width = parse_field_unsigned(value, line, "width", 26);
  } else if (key == "algorithm") {
    if (value != "bssa" && value != "dalta" && value != "round-in" &&
        value != "round-out") {
      fail_at(line, "unknown algorithm '" + token_excerpt(value) + "'");
    }
    job.algorithm = value;
  } else if (key == "arch") {
    if (value != "dalta" && value != "bto-normal" &&
        value != "bto-normal-nd") {
      fail_at(line, "unknown arch '" + token_excerpt(value) + "'");
    }
    job.arch = value;
  } else if (key == "bound") {
    job.bound = parse_field_unsigned(value, line, "bound", 25);
  } else if (key == "rounds") {
    job.rounds = parse_field_unsigned(value, line, "rounds", 1u << 20);
  } else if (key == "partitions") {
    job.partitions = parse_field_unsigned(value, line, "partitions", 1u << 20);
  } else if (key == "patterns") {
    job.patterns = parse_field_unsigned(value, line, "patterns", 1u << 20);
    // OptForPart needs at least one initial pattern vector.
    if (job.patterns == 0) fail_at(line, "patterns must be >= 1");
  } else if (key == "beams") {
    job.beams = parse_field_unsigned(value, line, "beams", 4096);
  } else if (key == "chains") {
    job.chains = parse_field_unsigned(value, line, "chains", 4096);
  } else if (key == "nd-candidates") {
    job.nd_candidates = parse_field_unsigned(value, line, "nd-candidates", 4096);
  } else if (key == "metric") {
    if (value != "med" && value != "mse" && value != "er") {
      fail_at(line, "unknown metric '" + token_excerpt(value) + "'");
    }
    job.metric = value;
  } else if (key == "delta") {
    job.delta = parse_field_double(value, line, "delta");
  } else if (key == "delta-prime") {
    job.delta_prime = parse_field_double(value, line, "delta-prime");
  } else if (key == "seed") {
    job.seed = core::detail::parse_unsigned(value, line, "seed");
  } else if (key == "drop") {
    job.drop = parse_field_unsigned(value, line, "drop", 25);
  } else if (key == "budget") {
    job.budget = parse_field_double(value, line, "budget");
    if (job.budget < 0.0) fail_at(line, "budget must be >= 0");
  } else {
    fail_at(line, "unknown job field '" + token_excerpt(key) + "'");
  }
}

void apply_fields(SuiteJob& job, const std::vector<std::string>& tokens,
                  std::size_t first, std::size_t line) {
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      fail_at(line, "expected key=value, got '" + token_excerpt(tokens[i]) +
                        "'");
    }
    apply_field(job, tokens[i].substr(0, eq), tokens[i].substr(eq + 1), line);
  }
}

/// Cross-field checks a finished job line must pass.
void validate_job(const SuiteJob& job, std::size_t line) {
  if (job.algorithm == "dalta" && job.arch != "dalta") {
    fail_at(line, "job '" + job.name +
                      "': the DALTA algorithm only supports arch=dalta");
  }
  if (!job.table.empty() && job.table.find('\n') != std::string::npos) {
    fail_at(line, "table path contains a newline");
  }
  if (job.rounds < 1) fail_at(line, "rounds must be >= 1");
}

}  // namespace

Manifest read_manifest(std::istream& in) {
  core::detail::LineReader reader(in);
  const auto magic_line = reader.next();  // read first: arg order is unspecified
  core::format::check_header_line(magic_line, kFormat, reader.number());

  Manifest manifest;
  SuiteJob defaults;
  std::set<std::string> names;
  for (;;) {
    const auto line = reader.next();
    const auto tokens = core::detail::tokens_of(line);
    const auto line_no = reader.number();
    if (tokens[0] == "end") {
      if (tokens.size() != 1) fail_at(line_no, "trailing tokens after 'end'");
      break;
    }
    if (tokens[0] == "default") {
      apply_fields(defaults, tokens, 1, line_no);
      continue;
    }
    if (tokens[0] != "job") {
      fail_at(line_no, "expected 'job', 'default', or 'end', got '" +
                           token_excerpt(tokens[0]) + "'");
    }
    if (tokens.size() < 2) fail_at(line_no, "job line needs a name");
    SuiteJob job = defaults;
    job.name = tokens[1];
    if (!valid_name(job.name)) {
      fail_at(line_no, "job name '" + token_excerpt(job.name) +
                           "' must be 1-64 chars of [A-Za-z0-9._-]");
    }
    if (!names.insert(job.name).second) {
      fail_at(line_no, "duplicate job name '" + job.name + "'");
    }
    apply_fields(job, tokens, 2, line_no);
    validate_job(job, line_no);
    if (manifest.jobs.size() >= kMaxJobs) {
      fail_at(line_no, "manifest exceeds " + std::to_string(kMaxJobs) +
                           " jobs");
    }
    manifest.jobs.push_back(std::move(job));
  }
  if (manifest.jobs.empty()) {
    throw std::invalid_argument("manifest lists no jobs");
  }
  return manifest;
}

Manifest manifest_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_manifest(in);
}

Manifest load_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw util::IoError("cannot open manifest", path, errno);
  }
  return read_manifest(in);
}

}  // namespace dalut::suite
