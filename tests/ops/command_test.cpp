// Typed command plane: declarative registration, longest-prefix dispatch,
// aliases, typed parameter validation (bounds, reals, choices, optionals),
// flags and named options, auto-generated help, and the text/JSON dual
// rendering of ReplyBuilder.
#include "ops/command.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace fnda::ops {
namespace {

CommandTable make_table() {
  CommandTable table;
  table.add(CommandSpec{
      .name = "metrics dump",
      .aliases = {"md"},
      .help = "dump the merged metrics",
      .params = {},
      .flags = {"json", "prom"},
      .options = {},
      .handler = [](const Invocation& inv) {
        ReplyBuilder reply;
        reply.field("json", inv.flag("json"));
        reply.field("prom", inv.flag("prom"));
        return reply.build();
      }});
  table.add(CommandSpec{
      .name = "metrics show",
      .aliases = {"m"},
      .help = "show the metrics table",
      .params = {},
      .flags = {},
      .options = {},
      .handler = [](const Invocation&) {
        return ReplyBuilder{}.field("shown", true).build();
      }});
  table.add(CommandSpec{
      .name = "run",
      .aliases = {"r"},
      .help = "run rounds",
      .params = {ParamSpec::integer("rounds", 1, 100, "round count")
                     .optional("1")},
      .flags = {},
      .options = {},
      .handler = [](const Invocation& inv) {
        return ReplyBuilder{}.field("rounds", inv.get_int("rounds")).build();
      }});
  table.add(CommandSpec{
      .name = "mode",
      .aliases = {},
      .help = "set a mode",
      .params = {ParamSpec::choice("which", {"fast", "safe"}, "the mode")},
      .flags = {},
      .options = {},
      .handler = [](const Invocation& inv) {
        return ReplyBuilder{}.field("which", inv.get("which")).build();
      }});
  return table;
}

TEST(CommandTable, DispatchesLongestMultiWordName) {
  const CommandTable table = make_table();
  const Reply dump = table.dispatch("metrics dump");
  EXPECT_TRUE(dump.ok) << dump.text();
  EXPECT_NE(dump.text().find("json: false"), std::string::npos);
  const Reply show = table.dispatch("metrics show");
  EXPECT_TRUE(show.ok);
  EXPECT_NE(show.text().find("shown: true"), std::string::npos);
}

TEST(CommandTable, AliasDispatch) {
  const CommandTable table = make_table();
  EXPECT_TRUE(table.dispatch("md").ok);
  EXPECT_TRUE(table.dispatch("m").ok);
  const Reply reply = table.dispatch("r 7");
  EXPECT_TRUE(reply.ok);
  EXPECT_NE(reply.json.find("\"rounds\":7"), std::string::npos);
}

TEST(CommandTable, OptionalParamFallsBack) {
  const CommandTable table = make_table();
  const Reply reply = table.dispatch("run");
  EXPECT_TRUE(reply.ok);
  EXPECT_NE(reply.json.find("\"rounds\":1"), std::string::npos);
}

TEST(CommandTable, IntegerBoundsEnforced) {
  const CommandTable table = make_table();
  EXPECT_FALSE(table.dispatch("run 0").ok);
  EXPECT_FALSE(table.dispatch("run 101").ok);
  EXPECT_FALSE(table.dispatch("run banana").ok);
  EXPECT_TRUE(table.dispatch("run 100").ok);
}

TEST(CommandTable, ChoiceMembershipEnforced) {
  const CommandTable table = make_table();
  EXPECT_TRUE(table.dispatch("mode fast").ok);
  const Reply bad = table.dispatch("mode slow");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.text().find("fast"), std::string::npos);  // lists choices
}

TEST(CommandTable, UnknownFlagAndExtraArgsRejected) {
  const CommandTable table = make_table();
  EXPECT_FALSE(table.dispatch("metrics dump --nope").ok);
  EXPECT_TRUE(table.dispatch("metrics dump --json").ok);
  EXPECT_FALSE(table.dispatch("run 3 extra").ok);
}

TEST(CommandTable, UnknownCommandAndMissingParam) {
  const CommandTable table = make_table();
  const Reply unknown = table.dispatch("frobnicate");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.json.find("\"ok\":false"), std::string::npos);
  EXPECT_FALSE(table.dispatch("mode").ok);  // required param missing
}

TEST(CommandTable, BlankLineIsOkNoop) {
  const CommandTable table = make_table();
  const Reply reply = table.dispatch("   ");
  EXPECT_TRUE(reply.ok);
  EXPECT_TRUE(reply.lines.empty());
}

TEST(CommandTable, HelpListsCommandsAndPerCommandUsage) {
  const CommandTable table = make_table();
  const Reply all = table.dispatch("help");
  EXPECT_TRUE(all.ok);
  EXPECT_NE(all.text().find("metrics dump"), std::string::npos);
  EXPECT_NE(all.text().find("run"), std::string::npos);
  const Reply one = table.dispatch("help run");
  EXPECT_TRUE(one.ok);
  EXPECT_NE(one.text().find("rounds"), std::string::npos);
}

TEST(ReplyBuilder, TextAndJsonRenderTheSameFields) {
  ReplyBuilder builder;
  builder.field("name", std::string_view{"va\"lue"});
  builder.field("count", std::int64_t{-3});
  builder.field("total", std::uint64_t{7});
  builder.field("live", true);
  builder.row("  raw row");
  const Reply reply = builder.build();
  EXPECT_TRUE(reply.ok);
  EXPECT_NE(reply.text().find("name: va\"lue"), std::string::npos);
  EXPECT_NE(reply.text().find("count: -3"), std::string::npos);
  EXPECT_NE(reply.text().find("  raw row"), std::string::npos);
  EXPECT_NE(reply.json.find("\"name\":\"va\\\"lue\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"count\":-3"), std::string::npos);
  EXPECT_NE(reply.json.find("\"live\":true"), std::string::npos);
  EXPECT_NE(reply.json.find("\"rows\":["), std::string::npos);
}

TEST(ReplyBuilder, ErrorReplyShape) {
  const Reply reply = Reply::error("boom \"quoted\"");
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.text(), "error: boom \"quoted\"");
  EXPECT_EQ(reply.json, "{\"ok\":false,\"error\":\"boom \\\"quoted\\\"\"}");
}

TEST(CommandTable, HelpIsUnchangedForSpecsWithoutOptions) {
  const CommandTable table = make_table();
  const Reply one = table.dispatch("help run");
  EXPECT_EQ(one.text(),
            "command: run\n"
            "usage: run [rounds]\n"
            "aliases: r\n"
            "help: run rounds\n"
            "  <rounds> int [1, 100] (default: 1) — round count");
  EXPECT_EQ(one.json,
            "{\"ok\":true,\"command\":\"run\",\"usage\":\"run [rounds]\","
            "\"aliases\":\"r\",\"help\":\"run rounds\",\"rows\":[\"  <rounds> "
            "int [1, 100] (default: 1) — round count\"]}");
  EXPECT_EQ(table.dispatch("help").text(),
            "commands: 4\n"
            "  metrics dump [--json] [--prom] — dump the merged metrics\n"
            "  metrics show — show the metrics table\n"
            "  run [rounds] — run rounds\n"
            "  mode <which> — set a mode");
}

// Named `--name value` options, as the fnda CLI declares them.  The CLI
// dispatches its argv as pre-split tokens.
CommandTable make_cli_table(Invocation* seen) {
  CommandTable table;
  table.add(CommandSpec{
      .name = "clear",
      .aliases = {},
      .help = "clear a book",
      .params = {},
      .flags = {"verbose"},
      .options = {ParamSpec::choice("protocol", {"tpd", "pmd"}, "protocol")
                      .optional("tpd"),
                  ParamSpec::real("threshold", -1e6, 1e6, "threshold price")
                      .optional("50"),
                  ParamSpec::real("drop", 0.0, 1.0, "drop probability")
                      .optional("0"),
                  ParamSpec::integer("n", -100, 100, "a count").optional("42"),
                  ParamSpec::string("book", "book file").optional(""),
                  ParamSpec::string("who", "required trader")},
      .handler = [seen](const Invocation& inv) {
        *seen = inv;
        return Reply{};
      }});
  return table;
}

Reply dispatch_cli(std::vector<std::string> tokens, Invocation* seen) {
  tokens.insert(tokens.begin(), "clear");
  tokens.insert(tokens.end(), {"--who", "buyer:0"});
  return make_cli_table(seen).dispatch(tokens);
}

TEST(ArgParserTest, CommandAndFlags) {
  Invocation seen;
  const Reply reply =
      dispatch_cli({"--protocol", "pmd", "--threshold", "4.5"}, &seen);
  ASSERT_TRUE(reply.ok) << reply.text();
  EXPECT_EQ(seen.get("protocol"), "pmd");
  EXPECT_DOUBLE_EQ(seen.get_real("threshold"), 4.5);
  EXPECT_TRUE(seen.has("threshold"));
  EXPECT_EQ(seen.get("who"), "buyer:0");
}

TEST(ArgParserTest, NoCommand) {
  Invocation seen;
  const Reply reply =
      make_cli_table(&seen).dispatch(std::vector<std::string>{});
  EXPECT_TRUE(reply.ok);
  EXPECT_TRUE(reply.lines.empty());
}

TEST(ArgParserTest, BareFlag) {
  Invocation seen;
  ASSERT_TRUE(dispatch_cli({"--verbose"}, &seen).ok);
  EXPECT_TRUE(seen.flag("verbose"));
  // A flag takes no value: the next token is a stray positional.
  EXPECT_FALSE(dispatch_cli({"--verbose", "1"}, &seen).ok);
}

TEST(ArgParserTest, DefaultsWhenMissing) {
  Invocation seen;
  ASSERT_TRUE(dispatch_cli({}, &seen).ok);
  EXPECT_FALSE(seen.flag("verbose"));
  EXPECT_FALSE(seen.has("threshold"));
  EXPECT_EQ(seen.get("protocol"), "tpd");
  EXPECT_DOUBLE_EQ(seen.get_real("threshold"), 50.0);
  EXPECT_EQ(seen.get_int("n"), 42);
  EXPECT_FALSE(seen.has("book"));
  EXPECT_EQ(seen.get("book"), "");
}

TEST(ArgParserTest, RejectsMalformedInput) {
  Invocation seen;
  const Reply stray = dispatch_cli({"stray-value"}, &seen);
  EXPECT_FALSE(stray.ok);
  EXPECT_NE(stray.text().find("too many arguments"), std::string::npos);
  EXPECT_FALSE(dispatch_cli({"--n", "1", "--n", "2"}, &seen).ok);
  EXPECT_FALSE(dispatch_cli({"--verbose", "--verbose"}, &seen).ok);
  EXPECT_FALSE(dispatch_cli({"--"}, &seen).ok);
}

TEST(ArgParserTest, RejectsNonNumericValues) {
  Invocation seen;
  EXPECT_FALSE(dispatch_cli({"--n", "abc"}, &seen).ok);
  EXPECT_FALSE(dispatch_cli({"--n", "4.5"}, &seen).ok);
  EXPECT_FALSE(dispatch_cli({"--threshold", "1.2.3"}, &seen).ok);
}

TEST(ArgParserTest, UnusedTracksUnconsumedFlags) {
  Invocation seen;
  const Reply typo = dispatch_cli({"--n", "1", "--typo", "2"}, &seen);
  EXPECT_FALSE(typo.ok);
  EXPECT_NE(typo.text().find("unknown flag --typo"), std::string::npos);
}

TEST(ArgParserTest, NegativeNumbersAreValues) {
  // "-5" does not start with "--", so it is the option's value.
  Invocation seen;
  ASSERT_TRUE(dispatch_cli({"--n", "-5", "--threshold", "-2.5"}, &seen).ok);
  EXPECT_EQ(seen.get_int("n"), -5);
  EXPECT_DOUBLE_EQ(seen.get_real("threshold"), -2.5);
}

TEST(CommandTable, RealOptionsMustBeFiniteAndInBounds) {
  Invocation seen;
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1.2.3", "4.5x", "",
                          " 1", "1e400"}) {
    const Reply reply = dispatch_cli({"--threshold", bad}, &seen);
    EXPECT_FALSE(reply.ok) << bad;
    EXPECT_NE(reply.text().find("--threshold"), std::string::npos) << bad;
  }
  EXPECT_FALSE(dispatch_cli({"--threshold", "1000001"}, &seen).ok);
  EXPECT_FALSE(dispatch_cli({"--drop", "7"}, &seen).ok);
  EXPECT_FALSE(dispatch_cli({"--drop", "-0.1"}, &seen).ok);
  ASSERT_TRUE(dispatch_cli({"--drop", "1", "--threshold", "1e2"}, &seen).ok);
  EXPECT_DOUBLE_EQ(seen.get_real("drop"), 1.0);
  EXPECT_DOUBLE_EQ(seen.get_real("threshold"), 100.0);
}

TEST(CommandTable, OptionNeedsAValueAndAppearsOnce) {
  Invocation seen;
  const Reply trailing = dispatch_cli({"--n"}, &seen);
  // dispatch_cli appends --who, so --n is followed by a flag token.
  EXPECT_FALSE(trailing.ok);
  EXPECT_NE(trailing.text().find("--n expects a value"), std::string::npos);
  const Reply last = make_cli_table(&seen).dispatch(
      std::vector<std::string>{"clear", "--who", "x", "--n"});
  EXPECT_FALSE(last.ok);
  const Reply repeated =
      dispatch_cli({"--protocol", "tpd", "--protocol", "pmd"}, &seen);
  EXPECT_FALSE(repeated.ok);
  EXPECT_NE(repeated.text().find("repeated --protocol"), std::string::npos);
  const Reply missing =
      make_cli_table(&seen).dispatch(std::vector<std::string>{"clear"});
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.text().find("missing --who"), std::string::npos);
}

TEST(CommandTable, TokenDispatchNeverResplits) {
  Invocation seen;
  ASSERT_TRUE(dispatch_cli({"--book", "dir with spaces/book.csv"}, &seen).ok);
  EXPECT_EQ(seen.get("book"), "dir with spaces/book.csv");
  EXPECT_TRUE(seen.has("book"));
}

TEST(CommandTable, HelpDescribesOptions) {
  Invocation seen;
  const CommandTable table = make_cli_table(&seen);
  const Reply usage = table.dispatch("help clear");
  ASSERT_TRUE(usage.ok);
  const std::string text = usage.text();
  EXPECT_NE(text.find("usage: clear --who <who> [options] [--verbose]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  --threshold real [-1e+06, 1e+06] (default: 50)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  --protocol one of tpd pmd (default: tpd)"),
            std::string::npos);
  EXPECT_NE(text.find("  --book — book file"), std::string::npos);
}

TEST(CommandTable, TokenizeSplitsOnWhitespace) {
  const auto tokens = CommandTable::tokenize("  a   bb\tccc ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "bb");
  EXPECT_EQ(tokens[2], "ccc");
}

}  // namespace
}  // namespace fnda::ops
