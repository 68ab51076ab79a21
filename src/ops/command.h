// Typed command plane for the operations console.
//
// Modeled on the eriksl esp32 CLI framework (SNIPPETS.md 1-3): commands
// live in a declarative table — multi-word names, aliases, help text, and
// *typed parameter descriptors* with bounds — so parsing, validation, and
// help generation are data-driven and a handler only ever sees arguments
// that already passed their declared checks.  Replies are structured:
// every command produces both a text rendering (the REPL/script surface)
// and a JSON object (the machine surface the future network gateway
// serves), built from the same fields so the two can never drift.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace fnda::ops {

enum class ParamType { kInt, kUInt, kReal, kString, kChoice };

/// One parameter's descriptor, positional or a named `--name value`
/// option.  kInt/kUInt/kReal validate bounds (kReal also finiteness);
/// kChoice validates membership; kString passes through.  Optional
/// positional parameters must trail required ones; an optional
/// parameter that is not given falls back to `fallback`.
struct ParamSpec {
  std::string name;
  ParamType type = ParamType::kString;
  bool required = true;
  std::int64_t min_value = std::numeric_limits<std::int64_t>::min();
  std::int64_t max_value = std::numeric_limits<std::int64_t>::max();
  double min_real = -std::numeric_limits<double>::infinity();  ///< kReal
  double max_real = std::numeric_limits<double>::infinity();   ///< kReal
  std::vector<std::string> choices;  ///< kChoice only
  std::string fallback;              ///< optional params only
  std::string help;

  static ParamSpec integer(std::string name, std::int64_t min_value,
                           std::int64_t max_value, std::string help);
  static ParamSpec real(std::string name, double min_real, double max_real,
                        std::string help);
  static ParamSpec string(std::string name, std::string help);
  static ParamSpec choice(std::string name, std::vector<std::string> choices,
                          std::string help);
  /// Marks the param optional with a default (applies to any factory).
  ParamSpec optional(std::string fallback) &&;
};

/// Structured reply: `ok` + text lines + a JSON object string.  Build via
/// ReplyBuilder so text and JSON stay two renderings of the same fields.
struct Reply {
  bool ok = true;
  std::vector<std::string> lines;
  std::string json;  ///< one JSON object, e.g. {"ok":true,"trades":3}

  std::string text() const;  ///< lines joined with '\n' (no trailing \n)

  static Reply error(const std::string& message);
};

/// Accumulates named fields and free-form rows, then renders both forms.
/// Fields become `key: value` text lines and JSON members; rows become
/// bare text lines and a JSON "rows" array.  Field order is preserved.
class ReplyBuilder {
 public:
  ReplyBuilder& field(std::string_view key, std::string_view value);
  ReplyBuilder& field(std::string_view key, std::int64_t value);
  ReplyBuilder& field(std::string_view key, std::uint64_t value);
  ReplyBuilder& field(std::string_view key, bool value);
  ReplyBuilder& row(std::string text);

  Reply build() const;

 private:
  struct Field {
    std::string key;
    std::string json_value;  ///< already JSON-encoded
    std::string text_value;  ///< human rendering
  };
  std::vector<Field> fields_;
  std::vector<std::string> rows_;
};

/// A parsed, validated invocation: values keyed by the declaring
/// ParamSpec/flag name.  Typed accessors never fail for declared names —
/// the parser rejected anything malformed before the handler ran.
class Invocation {
 public:
  bool flag(std::string_view name) const;
  /// True when the parameter was given rather than defaulted.
  bool has(std::string_view name) const;
  const std::string& get(std::string_view name) const;
  std::int64_t get_int(std::string_view name) const;
  double get_real(std::string_view name) const;

 private:
  friend class CommandTable;
  struct Value {
    std::string name;
    std::string text;
    bool given = false;
  };
  const Value* find(std::string_view name) const;

  std::vector<Value> values_;
  std::vector<std::string> flags_;
};

struct CommandSpec {
  /// Space-separated words, e.g. "metrics dump".  Dispatch matches the
  /// longest registered word sequence.
  std::string name;
  std::vector<std::string> aliases;
  std::string help;
  std::vector<ParamSpec> params;
  /// Boolean flags (`--json`); unknown flags are rejected.
  std::vector<std::string> flags;
  /// Named `--name value` parameters, checked like `params`.  A repeated
  /// flag or option, or an option without a value, is rejected.
  std::vector<ParamSpec> options;
  std::function<Reply(const Invocation&)> handler;
};

/// The command registry: registration, tokenization, longest-prefix
/// dispatch, typed validation, and auto-generated help.
class CommandTable {
 public:
  void add(CommandSpec spec);

  /// Tokenizes and dispatches one input line.  Empty/whitespace lines
  /// return an ok empty reply; unknown commands and validation failures
  /// return `ok == false` with a diagnostic.
  Reply dispatch(const std::string& line) const;
  /// Dispatches pre-split tokens (an argv), which are never re-split.
  Reply dispatch(const std::vector<std::string>& tokens) const;

  /// `help` / `help <command words>` rendering.
  Reply help(const std::vector<std::string>& words) const;

  const std::vector<CommandSpec>& commands() const { return commands_; }

  static std::vector<std::string> tokenize(const std::string& line);

 private:
  const CommandSpec* match(const std::vector<std::string>& tokens,
                           std::size_t* words_consumed) const;
  static std::string usage_line(const CommandSpec& spec);

  std::vector<CommandSpec> commands_;
};

}  // namespace fnda::ops
