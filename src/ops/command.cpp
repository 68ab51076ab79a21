#include "ops/command.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "obs/export.h"

namespace fnda::ops {
namespace {

bool parse_real(std::string_view text, double* out) {
  return parse_number(text, out) && std::isfinite(*out);
}

std::string real_text(double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, end);
}

/// Checks `raw` against `param`'s type, bounds and choices.  Returns the
/// diagnostic, or an empty string when the value is valid; `label` names
/// the parameter in it (`<name>` or `--name`).
std::string check_value(const ParamSpec& param, const std::string& label,
                        const std::string& raw) {
  switch (param.type) {
    case ParamType::kInt: {
      std::int64_t value = 0;
      if (!parse_number(raw, &value)) {
        return label + " expects an integer, got '" + raw + "'";
      }
      if (value < param.min_value || value > param.max_value) {
        return label + " out of range [" + std::to_string(param.min_value) +
               ", " + std::to_string(param.max_value) + "]: " + raw;
      }
      return {};
    }
    case ParamType::kReal: {
      double value = 0.0;
      if (!parse_real(raw, &value)) {
        return label + " expects a finite number, got '" + raw + "'";
      }
      if (value < param.min_real || value > param.max_real) {
        return label + " out of range [" + real_text(param.min_real) + ", " +
               real_text(param.max_real) + "]: " + raw;
      }
      return {};
    }
    case ParamType::kChoice: {
      std::string options;
      for (const std::string& choice : param.choices) {
        if (choice == raw) return {};
        if (!options.empty()) options += '|';
        options += choice;
      }
      return label + " must be one of " + options + ", got '" + raw + "'";
    }
    case ParamType::kString:
      return {};
  }
  return {};
}

/// One help row: `label`, its type and bounds, default, and help text.
std::string describe(const ParamSpec& param, const std::string& label) {
  std::string detail = "  " + label;
  if (param.type == ParamType::kInt) {
    detail += " int [" + std::to_string(param.min_value) + ", " +
              std::to_string(param.max_value) + "]";
  } else if (param.type == ParamType::kReal) {
    detail += " real [" + real_text(param.min_real) + ", " +
              real_text(param.max_real) + "]";
  } else if (param.type == ParamType::kChoice) {
    detail += " one of";
    for (const std::string& choice : param.choices) {
      detail += ' ' + choice;
    }
  }
  if (!param.required && !param.fallback.empty()) {
    detail += " (default: " + param.fallback + ")";
  }
  if (!param.help.empty()) detail += " — " + param.help;
  return detail;
}

}  // namespace

ParamSpec ParamSpec::integer(std::string name, std::int64_t min_value,
                             std::int64_t max_value, std::string help) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kInt;
  spec.min_value = min_value;
  spec.max_value = max_value;
  spec.help = std::move(help);
  return spec;
}

ParamSpec ParamSpec::real(std::string name, double min_real, double max_real,
                          std::string help) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kReal;
  spec.min_real = min_real;
  spec.max_real = max_real;
  spec.help = std::move(help);
  return spec;
}

ParamSpec ParamSpec::string(std::string name, std::string help) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kString;
  spec.help = std::move(help);
  return spec;
}

ParamSpec ParamSpec::choice(std::string name, std::vector<std::string> choices,
                            std::string help) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kChoice;
  spec.choices = std::move(choices);
  spec.help = std::move(help);
  return spec;
}

ParamSpec ParamSpec::optional(std::string fallback) && {
  required = false;
  this->fallback = std::move(fallback);
  return std::move(*this);
}

std::string Reply::text() const {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += '\n';
    out += lines[i];
  }
  return out;
}

Reply Reply::error(const std::string& message) {
  Reply reply;
  reply.ok = false;
  reply.lines.push_back("error: " + message);
  reply.json =
      "{\"ok\":false,\"error\":\"" + obs::json_escape(message) + "\"}";
  return reply;
}

ReplyBuilder& ReplyBuilder::field(std::string_view key,
                                  std::string_view value) {
  fields_.push_back(Field{std::string(key),
                          '"' + obs::json_escape(value) + '"',
                          std::string(value)});
  return *this;
}

ReplyBuilder& ReplyBuilder::field(std::string_view key, std::int64_t value) {
  const std::string text = std::to_string(value);
  fields_.push_back(Field{std::string(key), text, text});
  return *this;
}

ReplyBuilder& ReplyBuilder::field(std::string_view key, std::uint64_t value) {
  const std::string text = std::to_string(value);
  fields_.push_back(Field{std::string(key), text, text});
  return *this;
}

ReplyBuilder& ReplyBuilder::field(std::string_view key, bool value) {
  fields_.push_back(Field{std::string(key), value ? "true" : "false",
                          value ? "true" : "false"});
  return *this;
}

ReplyBuilder& ReplyBuilder::row(std::string text) {
  rows_.push_back(std::move(text));
  return *this;
}

Reply ReplyBuilder::build() const {
  Reply reply;
  reply.json = "{\"ok\":true";
  for (const Field& field : fields_) {
    reply.lines.push_back(field.key + ": " + field.text_value);
    reply.json +=
        ",\"" + obs::json_escape(field.key) + "\":" + field.json_value;
  }
  if (!rows_.empty()) {
    reply.json += ",\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) reply.json += ',';
      reply.json += '"' + obs::json_escape(rows_[i]) + '"';
      reply.lines.push_back(rows_[i]);
    }
    reply.json += ']';
  }
  reply.json += '}';
  return reply;
}

bool Invocation::flag(std::string_view name) const {
  for (const std::string& flag : flags_) {
    if (flag == name) return true;
  }
  return false;
}

const Invocation::Value* Invocation::find(std::string_view name) const {
  for (const Value& value : values_) {
    if (value.name == name) return &value;
  }
  return nullptr;
}

bool Invocation::has(std::string_view name) const {
  const Value* value = find(name);
  return value != nullptr && value->given;
}

const std::string& Invocation::get(std::string_view name) const {
  if (const Value* value = find(name)) return value->text;
  throw std::logic_error("Invocation: undeclared parameter '" +
                         std::string(name) + "'");
}

std::int64_t Invocation::get_int(std::string_view name) const {
  std::int64_t value = 0;
  if (!parse_number(get(name), &value)) {
    throw std::logic_error("Invocation: parameter '" + std::string(name) +
                           "' is not an integer");
  }
  return value;
}

double Invocation::get_real(std::string_view name) const {
  double value = 0.0;
  if (!parse_real(get(name), &value)) {
    throw std::logic_error("Invocation: parameter '" + std::string(name) +
                           "' is not a finite number");
  }
  return value;
}

std::vector<std::string> CommandTable::tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

void CommandTable::add(CommandSpec spec) { commands_.push_back(std::move(spec)); }

std::string CommandTable::usage_line(const CommandSpec& spec) {
  std::string usage = spec.name;
  for (const ParamSpec& param : spec.params) {
    usage += ' ';
    usage += param.required ? "<" + param.name + ">" : "[" + param.name + "]";
  }
  bool optional_options = false;
  for (const ParamSpec& option : spec.options) {
    if (option.required) {
      usage += " --" + option.name + " <" + option.name + ">";
    } else {
      optional_options = true;
    }
  }
  if (optional_options) usage += " [options]";
  for (const std::string& flag : spec.flags) {
    usage += " [--" + flag + "]";
  }
  return usage;
}

const CommandSpec* CommandTable::match(const std::vector<std::string>& tokens,
                                       std::size_t* words_consumed) const {
  const CommandSpec* best = nullptr;
  std::size_t best_words = 0;
  for (const CommandSpec& spec : commands_) {
    // Exact multi-word name match against the leading tokens.
    const std::vector<std::string> words = tokenize(spec.name);
    if (words.size() <= tokens.size()) {
      bool matches = true;
      for (std::size_t i = 0; i < words.size(); ++i) {
        if (words[i] != tokens[i]) {
          matches = false;
          break;
        }
      }
      if (matches && words.size() > best_words) {
        best = &spec;
        best_words = words.size();
      }
    }
    // Aliases are single tokens standing for the whole name.
    if (best_words < 1 && !tokens.empty()) {
      for (const std::string& alias : spec.aliases) {
        if (alias == tokens[0]) {
          best = &spec;
          best_words = 1;
        }
      }
    }
  }
  *words_consumed = best_words;
  return best;
}

Reply CommandTable::dispatch(const std::string& line) const {
  return dispatch(tokenize(line));
}

Reply CommandTable::dispatch(const std::vector<std::string>& tokens) const {
  if (tokens.empty()) return Reply{};
  if (tokens[0] == "help" || tokens[0] == "?") {
    return help({tokens.begin() + 1, tokens.end()});
  }

  std::size_t consumed = 0;
  const CommandSpec* spec = match(tokens, &consumed);
  if (spec == nullptr) {
    // Name the known leading words too: "config set nope", not "config".
    std::size_t known = 0;
    for (const CommandSpec& candidate : commands_) {
      const std::vector<std::string> words = tokenize(candidate.name);
      std::size_t shared = 0;
      while (shared < words.size() && shared + 1 < tokens.size() &&
             words[shared] == tokens[shared]) {
        ++shared;
      }
      known = std::max(known, shared);
    }
    std::string name = tokens[0];
    for (std::size_t i = 1; i <= known; ++i) name += ' ' + tokens[i];
    return Reply::error("unknown command: '" + name + "' (try 'help')");
  }
  const std::string usage = " (usage: " + usage_line(*spec) + ")";

  Invocation invocation;
  std::vector<std::string> positional;
  for (std::size_t i = consumed; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.size() <= 2 || token[0] != '-' || token[1] != '-') {
      positional.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    if (invocation.flag(name) || invocation.find(name) != nullptr) {
      return Reply::error("repeated --" + name + usage);
    }
    if (std::find(spec->flags.begin(), spec->flags.end(), name) !=
        spec->flags.end()) {
      invocation.flags_.push_back(name);
      continue;
    }
    const auto option =
        std::find_if(spec->options.begin(), spec->options.end(),
                     [&name](const ParamSpec& o) { return o.name == name; });
    if (option == spec->options.end()) {
      return Reply::error("unknown flag " + token + usage);
    }
    if (i + 1 == tokens.size() || tokens[i + 1].rfind("--", 0) == 0) {
      return Reply::error(token + " expects a value" + usage);
    }
    const std::string& raw = tokens[++i];
    if (std::string problem = check_value(*option, token, raw);
        !problem.empty()) {
      return Reply::error(problem);
    }
    invocation.values_.push_back({name, raw, true});
  }
  for (const ParamSpec& option : spec->options) {
    if (invocation.find(option.name) != nullptr) continue;
    if (option.required) {
      return Reply::error("missing --" + option.name + usage);
    }
    invocation.values_.push_back({option.name, option.fallback, false});
  }

  if (positional.size() > spec->params.size()) {
    return Reply::error("too many arguments" + usage);
  }
  for (std::size_t i = 0; i < spec->params.size(); ++i) {
    const ParamSpec& param = spec->params[i];
    if (i >= positional.size()) {
      if (param.required) {
        return Reply::error("missing <" + param.name + ">" + usage);
      }
      invocation.values_.push_back({param.name, param.fallback, false});
      continue;
    }
    const std::string& raw = positional[i];
    if (std::string problem = check_value(param, "<" + param.name + ">", raw);
        !problem.empty()) {
      return Reply::error(problem);
    }
    invocation.values_.push_back({param.name, raw, true});
  }

  return spec->handler(invocation);
}

Reply CommandTable::help(const std::vector<std::string>& words) const {
  if (!words.empty()) {
    // Detail view: match the requested words against one command.
    std::string requested;
    for (const std::string& word : words) {
      if (!requested.empty()) requested += ' ';
      requested += word;
    }
    for (const CommandSpec& spec : commands_) {
      bool hit = spec.name == requested;
      for (const std::string& alias : spec.aliases) {
        if (alias == requested) hit = true;
      }
      if (!hit) continue;
      ReplyBuilder builder;
      builder.field("command", spec.name);
      builder.field("usage", usage_line(spec));
      if (!spec.aliases.empty()) {
        std::string aliases;
        for (const std::string& alias : spec.aliases) {
          if (!aliases.empty()) aliases += ", ";
          aliases += alias;
        }
        builder.field("aliases", aliases);
      }
      builder.field("help", spec.help);
      for (const ParamSpec& param : spec.params) {
        builder.row(describe(param, "<" + param.name + ">"));
      }
      for (const ParamSpec& option : spec.options) {
        builder.row(describe(option, "--" + option.name));
      }
      return builder.build();
    }
    return Reply::error("unknown command: '" + requested + "'");
  }

  ReplyBuilder builder;
  builder.field("commands", static_cast<std::uint64_t>(commands_.size()));
  for (const CommandSpec& spec : commands_) {
    builder.row("  " + usage_line(spec) + " — " + spec.help);
  }
  return builder.build();
}

}  // namespace fnda::ops
