// bench/report.hpp
//
// The one result mechanism of the trajectory studies (overhead_study,
// scaling_study, scale_study, cache_fairness_study): the shared command
// line, a streaming JSON writer and the result file with its gate ledger.
// Standard library only, so tests can include it without the simulator.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace bench {

struct StudyArgs {
  bool smoke = false;  ///< CI-sized run
  std::string out;     ///< result file path
};

/// Parse `[--smoke] [--out PATH]`. Anything else, or `--out` without a path,
/// prints usage to stderr and exits 2: a typo must never fall back to
/// overwriting the default (committed) result file.
inline StudyArgs parse_study_args(int argc, char** argv,
                                  const char* default_out) {
  StudyArgs args{false, default_out};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      args.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "%s: %s '%s'\nusage: %s [--smoke] [--out PATH] "
                   "(default PATH: %s)\n",
                   argv[0], arg == "--out" ? "no path after" : "bad argument",
                   argv[i], argv[0], default_out);
      std::exit(2);
    }
  }
  return args;
}

/// Streaming JSON writer. `field` and the named `begin_*` add an object
/// member, the unnamed `begin_object` an array element; `end` closes the
/// innermost container. Members keep insertion order, unsigned integers
/// print unsigned, and doubles print one way: shortest round-trip, always
/// with a '.' or an exponent so they read back as doubles. The root object
/// has one member per line, every array one element per line, and every
/// other object is one line, so each array row is one diffable line.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open(nullptr, '}'); }
  JsonWriter& begin_object(std::string_view name) { return open(&name, '}'); }
  JsonWriter& begin_array(std::string_view name) { return open(&name, ']'); }

  JsonWriter& end() {
    const Frame f = stack_.back();
    stack_.pop_back();
    if (f.multiline && !f.empty) newline(f.indent - 2);
    out_ += f.close;
    return *this;
  }

  /// One object member holding a bool, integer, floating-point or string.
  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    separator(&name);
    if constexpr (std::is_same_v<T, bool>) {
      out_ += v ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    } else if constexpr (std::is_floating_point_v<T>) {
      number(static_cast<double>(v));
    } else {
      quoted(std::string_view(v));
    }
    return *this;
  }

  /// Close every open container and return the document.
  std::string finish() {
    while (!stack_.empty()) end();
    return std::move(out_) + '\n';
  }

 private:
  struct Frame {
    char close;
    bool multiline;      ///< the root object and every array
    bool empty;
    std::size_t indent;  ///< spaces before each element line
  };

  JsonWriter& open(const std::string_view* name, char close) {
    separator(name);
    out_ += close == ']' ? '[' : '{';
    const bool multiline = close == ']';
    stack_.push_back(
        Frame{close, multiline, true, stack_.back().indent + 2 * multiline});
    return *this;
  }

  /// Comma, line break and key before the next member or element.
  void separator(const std::string_view* name) {
    Frame& f = stack_.back();
    if (!f.empty) out_ += f.multiline ? "," : ", ";
    if (f.multiline) newline(f.indent);
    f.empty = false;
    if (name != nullptr) {
      quoted(*name);
      out_ += ": ";
    }
  }

  void newline(std::size_t indent) {
    out_ += '\n';
    out_.append(indent, ' ');
  }

  void number(double v) {
    if (!std::isfinite(v)) {  // JSON has no inf/nan
      out_ += "null";
      return;
    }
    char buf[32];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    const std::string_view text(buf, static_cast<std::size_t>(end - buf));
    out_ += text;
    if (text.find_first_of(".e") == std::string_view::npos) out_ += ".0";
  }

  void quoted(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    out_ += '"';
    for (const char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += ch;
      } else if (c < 0x20) {
        out_ += "\\u00";
        out_ += kHex[c >> 4];
        out_ += kHex[c & 0xF];
      } else {
        out_ += ch;
      }
    }
    out_ += '"';
  }

  std::string out_ = "{";
  std::vector<Frame> stack_{Frame{'}', true, true, 2}};
};

/// A study's result file and gate ledger. The constructor writes the common
/// header (bench, smoke, host_cpus); the study adds its members through
/// json() and records every gate with gate() or skip(); finish() appends
/// the `gates` object, writes the file and returns the exit code.
class Report {
 public:
  Report(const char* bench, StudyArgs args)
      : args_(std::move(args)),
        host_cpus_(std::thread::hardware_concurrency()) {
    json_.field("bench", bench)
        .field("smoke", args_.smoke)
        .field("host_cpus", host_cpus_);
  }

  [[nodiscard]] JsonWriter& json() noexcept { return json_; }
  [[nodiscard]] bool smoke() const noexcept { return args_.smoke; }
  [[nodiscard]] unsigned host_cpus() const noexcept { return host_cpus_; }

  /// Print the verdict line (the formatted text, then ": PASS" or
  /// ": FAIL") and record the gate. Returns `pass`.
  __attribute__((format(printf, 4, 5))) bool gate(const char* name,
                                                  bool pass, const char* fmt,
                                                  ...) {
    std::va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf(": %s\n", pass ? "PASS" : "FAIL");
    gates_.emplace_back(name, pass ? "PASS" : "FAIL");
    failed_ = failed_ || !pass;
    return pass;
  }

  /// Record a gate that this host or mode cannot evaluate.
  void skip(const char* name, const char* why) {
    std::printf("acceptance: %s SKIPPED (%s)\n", name, why);
    gates_.emplace_back(name, "SKIPPED");
  }

  /// Returns 1 if any gate failed or the file could not be written.
  int finish() {
    json_.begin_object("gates");
    for (const auto& [name, verdict] : gates_) json_.field(name, verdict);
    std::ofstream out(args_.out);
    out << json_.end().finish();
    out.close();
    std::printf(out ? "wrote %s\n" : "cannot write %s\n", args_.out.c_str());
    return failed_ || !out ? 1 : 0;
  }

 private:
  StudyArgs args_;
  unsigned host_cpus_;
  JsonWriter json_;
  std::vector<std::pair<std::string, const char*>> gates_;
  bool failed_ = false;
};

}  // namespace bench
