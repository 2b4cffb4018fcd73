// pair_analyze — source-level static analysis for the PAIR codebase.
//
// The repo's load-bearing guarantees (bitwise-deterministic sharded
// Monte-Carlo, byte-identical telemetry reports, the allocation-free codec
// hot path, the event-queue total order) are enforced dynamically by
// goldens and sanitizers — which catch a violation only after someone has
// written one and only on the inputs a test happens to run. This layer
// checks the *source* against the architectural contracts before anything
// executes, so a new scheme or bench cannot quietly introduce a
// nondeterminism source into a report path or an allocation into a decode
// loop.
//
// Deliberately token/lightweight-parse based: no libclang dependency, no
// compile database. A SourceFile is scanned once into comment/string-
// blanked code, include directives, heuristically-recognised function
// definitions, and PAIR_ANALYZE_ALLOW suppressions; each Rule then pattern-
// matches against that structure. The parse is heuristic by design — the
// escape hatch for a false positive is an inline suppression with a reason,
// which doubles as documentation (placeholders kept lowercase here so the
// analyzer does not read its own docs as a suppression):
//
//   static std::map<...> cache;  // PAIR_ANALYZE_ALLOW(<rule-id>: <reason>)
//
// Rule families (catalogued in docs/CORRECTNESS.md):
//
//   DET  nondeterminism sources: std::random_device / rand() / srand(),
//        wall-clock time feeding logic, unordered-container use in any
//        file on a telemetry/report/golden output path.
//   HOT  heap allocation inside the RS/GF decode paths,
//        rs::DecodeScratch consumers (the PR-2 allocation-free contract)
//        and the storage-to-codec path that feeds them (word-level BitVec
//        access, Device::ReadBitsInto, PAIR's gather/stage routines).
//   LAY  include-layering: each src/ module may include only the modules
//        below it in the dependency DAG; upward includes are flagged.
//   CON  span-taking function definitions in src/ must carry a
//        PAIR_CHECK / PAIR_DCHECK contract on entry.
//   THR  non-const globals and function-local statics — shared mutable
//        state reachable from TrialEngine shard code (the tsan surface).
//   ANA  analyzer hygiene: malformed or unused suppressions.
//
// Output is a deterministic telemetry "pair-report" (tool = "pair_analyze"):
// findings as a table sorted by (file, line, rule), per-family counters. A
// committed baseline ratchets CI: a build fails only when a (rule, file)
// pair gains findings relative to the baseline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace pair_ecc::analyze {

// ------------------------------------------------------------------ model

/// One diagnostic. `rule` is the stable ID ("DET-RAND"); `file` is the
/// repo-relative, '/'-separated path the scanner was handed.
struct Finding {
  std::string rule;
  std::string file;
  unsigned line = 0;
  std::string message;

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// `// PAIR_ANALYZE_ALLOW(<rule-id>: <reason>)` parsed from a comment. A
/// suppression covers findings of `rule` on its own line and the line
/// directly below (so it can sit above the offending statement).
struct Suppression {
  unsigned line = 0;
  std::string rule;
  std::string reason;
  /// Set by the analyzer when a finding was discharged against this entry.
  mutable bool used = false;
};

struct IncludeDirective {
  unsigned line = 0;
  std::string path;    // as written between the quotes/brackets
  bool angled = false; // <...> (system) vs "..." (first-party)
};

/// A heuristically-recognised function definition: the scanner walks the
/// blanked code, matches `name(params) [qualifiers] {` shapes (skipping
/// control statements, constructor member-init lists, and lambdas), and
/// records the parameter text plus the [body_begin, body_end) offsets of
/// the brace-enclosed body.
struct FunctionDef {
  std::string name;          // unqualified (RsCode::Decode -> "Decode")
  std::string qualified;     // as written before the parameter list
  std::string params;        // text between the parentheses (blanked)
  unsigned line = 0;         // line of the opening brace's signature
  std::size_t body_begin = 0; // offset just past '{'
  std::size_t body_end = 0;   // offset of the matching '}'
};

/// One scanned translation unit / header.
class SourceFile {
 public:
  /// Scans in-memory text. `path` should be repo-relative with '/'
  /// separators; it drives module classification (src/<module>/...).
  static SourceFile FromString(std::string path, std::string text);

  /// Reads and scans a file on disk. Throws std::runtime_error on I/O error.
  static SourceFile Load(const std::string& fs_path, std::string rel_path);

  const std::string& path() const noexcept { return path_; }
  /// Raw text as read.
  const std::string& text() const noexcept { return text_; }
  /// Same length as text(), with comments and string/char-literal contents
  /// replaced by spaces (newlines preserved, so offsets and line numbers
  /// match the raw text).
  const std::string& code() const noexcept { return code_; }

  const std::vector<IncludeDirective>& includes() const noexcept {
    return includes_;
  }
  const std::vector<FunctionDef>& functions() const noexcept {
    return functions_;
  }
  const std::vector<Suppression>& suppressions() const noexcept {
    return suppressions_;
  }

  /// Top-level directory of `path` ("src", "tools", "bench", ...).
  std::string TopDir() const;
  /// For src/<module>/... paths, the module name; empty otherwise.
  std::string Module() const;

  /// 1-based line number of a byte offset into text()/code().
  unsigned LineOf(std::size_t offset) const;
  /// The raw text of 1-based line `line`, without the trailing newline.
  std::string_view LineText(unsigned line) const;

 private:
  std::string path_;
  std::string text_;
  std::string code_;
  std::vector<std::size_t> line_offsets_;  // offset of each line start
  std::vector<IncludeDirective> includes_;
  std::vector<FunctionDef> functions_;
  std::vector<Suppression> suppressions_;
};

// ----------------------------------------------------------------- config

/// Knobs that make the rules testable against synthetic fixtures and keep
/// repo-specific naming out of the rule logic.
struct AnalyzerConfig {
  /// Include-layering DAG: module -> modules it may include directly. The
  /// analyzer takes the transitive closure. Modules absent from the map are
  /// flagged (LAY-UNKNOWN) so a new src/ directory forces a DAG decision.
  std::map<std::string, std::vector<std::string>> layer_deps;

  /// Top-level dirs exempt from layering (apps may include anything).
  std::set<std::string> app_dirs = {"tools", "bench", "tests", "examples"};

  /// A file is on the report path (DET-UNORD applies) when it lives under
  /// one of these prefixes or includes one of these headers.
  std::vector<std::string> report_path_prefixes;
  std::vector<std::string> report_writer_headers;

  /// HOT scope: functions in files matching `hot_file_prefixes` whose name
  /// matches `hot_function_names` exactly, plus any function whose
  /// parameter list mentions `hot_param_marker`.
  std::vector<std::string> hot_file_prefixes;
  std::set<std::string> hot_function_names;
  std::string hot_param_marker = "DecodeScratch";
  /// Calls from a hot body to these (allocating convenience) APIs are
  /// HOT-COLDAPI findings.
  std::set<std::string> hot_banned_calls;

  /// CON scope: path prefixes whose function definitions are held to the
  /// entry-contract rule.
  std::vector<std::string> contract_prefixes;

  /// CON-ATOMIC scope: under these prefixes, a function that opens a
  /// std::ofstream while mentioning a JSON-ish identifier is presumed to be
  /// writing a report/checkpoint artifact and must use util::AtomicWriteFile
  /// (write-temp, fsync, rename) instead. `atomic_write_exempt` names the
  /// files allowed to open raw streams (the atomic writer itself).
  std::vector<std::string> atomic_write_prefixes;
  std::set<std::string> atomic_write_exempt;

  /// The layering + scoping that matches this repository.
  static AnalyzerConfig Default();
};

// ------------------------------------------------------------------ rules

class Rule {
 public:
  virtual ~Rule() = default;
  /// Stable finding ID, e.g. "DET-RAND".
  virtual std::string_view Id() const = 0;
  /// Family prefix, e.g. "DET".
  virtual std::string_view Family() const = 0;
  virtual std::string_view Description() const = 0;
  virtual void Check(const SourceFile& file, const AnalyzerConfig& config,
                     std::vector<Finding>& out) const = 0;
};

// -------------------------------------------------------------- analyzer

struct AnalysisResult {
  std::vector<Finding> findings;        // sorted by (file, line, rule)
  std::vector<Finding> suppressed;      // discharged by PAIR_ANALYZE_ALLOW
  std::uint64_t files_scanned = 0;
  std::uint64_t functions_scanned = 0;
};

class Analyzer {
 public:
  Analyzer() = default;
  explicit Analyzer(AnalyzerConfig config) : config_(std::move(config)) {}

  /// Registers a rule; returns *this for chaining.
  Analyzer& AddRule(std::unique_ptr<Rule> rule);

  /// The full registry this repository gates CI on.
  static Analyzer WithDefaultRules(AnalyzerConfig config =
                                       AnalyzerConfig::Default());

  const std::vector<std::unique_ptr<Rule>>& rules() const noexcept {
    return rules_;
  }
  const AnalyzerConfig& config() const noexcept { return config_; }

  /// Runs every rule over every file; applies suppressions; reports
  /// ANA-BAD-ALLOW / ANA-UNUSED-ALLOW hygiene findings.
  AnalysisResult Run(const std::vector<SourceFile>& files) const;

 private:
  AnalyzerConfig config_ = AnalyzerConfig::Default();
  std::vector<std::unique_ptr<Rule>> rules_;
};

/// Recursively collects *.cpp / *.hpp / *.h under `roots` (paths relative
/// to `repo_root`), lexicographically sorted, and scans each. Throws
/// std::runtime_error when a root does not exist.
std::vector<SourceFile> LoadSourceTree(const std::string& repo_root,
                                       const std::vector<std::string>& roots);

// ----------------------------------------------------- report & baseline

/// Renders the result as a deterministic pair-report JSON document
/// (schema-valid for telemetry::ValidateReportSchema).
telemetry::JsonValue ResultToReport(const AnalysisResult& result);

/// Per-(rule, file) finding counts — the ratchet unit for the baseline.
/// Line numbers are deliberately not part of the key, so unrelated edits
/// above a known finding do not break CI.
std::map<std::pair<std::string, std::string>, std::uint64_t> FindingCounts(
    const std::vector<Finding>& findings);

/// Extracts FindingCounts from a previously written report (the committed
/// baseline). Throws std::runtime_error on schema mismatch.
std::map<std::pair<std::string, std::string>, std::uint64_t>
BaselineFromReport(const telemetry::JsonValue& report);

/// Findings that exceed the baseline's count for their (rule, file) —
/// i.e. what --check fails on. Deterministic: preserves finding order.
std::vector<Finding> NewFindings(
    const std::vector<Finding>& findings,
    const std::map<std::pair<std::string, std::string>, std::uint64_t>&
        baseline);

}  // namespace pair_ecc::analyze
