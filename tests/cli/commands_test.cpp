#include "cli/commands.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace fnda {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun run(const std::vector<std::string>& args,
           const std::string& stdin_text = "") {
  std::istringstream in(stdin_text);
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, in, out, err);
  return CliRun{code, out.str(), err.str()};
}

const char* kExample1Book =
    "side,identity,value\n"
    "buyer,1,9\nbuyer,2,8\nbuyer,3,7\nbuyer,4,4\n"
    "seller,11,2\nseller,12,3\nseller,13,4\nseller,14,5\n";

TEST(CliTest, HelpByDefaultAndExplicit) {
  EXPECT_EQ(run({}).exit_code, 0);
  const CliRun help = run({"help"});
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.out.find("clear"), std::string::npos);
  EXPECT_NE(help.out.find("optimize"), std::string::npos);
}

TEST(CliTest, UnknownCommandIsUsageError) {
  const CliRun result = run({"frobnicate"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, ClearFromStdinTpd) {
  const CliRun result =
      run({"clear", "--protocol", "tpd", "--threshold", "4.5"},
          kExample1Book);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("3 trades"), std::string::npos);
  EXPECT_NE(result.out.find("pays 4.5"), std::string::npos);
}

TEST(CliTest, ClearJsonFormat) {
  const CliRun result = run(
      {"clear", "--protocol", "pmd", "--format", "json"}, kExample1Book);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("\"trades\":3"), std::string::npos);
  EXPECT_NE(result.out.find("\"price\":4.5"), std::string::npos);
}

TEST(CliTest, ClearCsvFormat) {
  const CliRun result = run(
      {"clear", "--protocol", "efficient", "--format", "csv"},
      kExample1Book);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_EQ(result.out.rfind("side,identity,price\n", 0), 0u);
}

TEST(CliTest, ClearVcgToleratesDeficit) {
  const CliRun result = run({"clear", "--protocol", "vcg"}, kExample1Book);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("auctioneer revenue -3"), std::string::npos);
}

TEST(CliTest, ClearRejectsUnknownProtocolAndFormat) {
  EXPECT_EQ(run({"clear", "--protocol", "nope"}, kExample1Book).exit_code, 2);
  EXPECT_EQ(run({"clear", "--format", "xml"}, kExample1Book).exit_code, 2);
}

TEST(CliTest, ClearRejectsUnknownFlag) {
  const CliRun result = run({"clear", "--bogus", "1"}, kExample1Book);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("--bogus"), std::string::npos);
}

TEST(CliTest, ClearMalformedBookIsError) {
  const CliRun result = run({"clear"}, "buyer,not-a-number\n");
  EXPECT_EQ(result.exit_code, 2);  // invalid_argument -> usage error path
}

TEST(CliTest, ClearMissingFileIsRuntimeError) {
  const CliRun result = run({"clear", "--book", "/no/such/file.csv"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, SimulateReportsEfficiency) {
  const CliRun result = run({"simulate", "--buyers", "10", "--sellers", "10",
                             "--instances", "50"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("efficiency:"), std::string::npos);
  EXPECT_NE(result.out.find("social surplus"), std::string::npos);
}

// The value domain widens to hold the --low/--high range, so a range
// below zero draws legal bids.
TEST(CliTest, SimulateAcceptsNegativeValueRange) {
  const CliRun result = run({"simulate", "--buyers", "10", "--sellers", "10",
                             "--instances", "20", "--low", "-50", "--high",
                             "50"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("U[-50,50]"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("social surplus"), std::string::npos);
  const CliRun optimize = run({"optimize", "--buyers", "10", "--sellers",
                               "10", "--instances", "20", "--low", "-50",
                               "--high", "50"});
  EXPECT_EQ(optimize.exit_code, 0) << optimize.err;
  EXPECT_NE(optimize.out.find("best threshold"), std::string::npos);
}

TEST(CliTest, InvertedValueRangeIsUsageError) {
  for (const char* command : {"simulate", "optimize"}) {
    const CliRun result =
        run({command, "--instances", "5", "--low", "60", "--high", "50"});
    EXPECT_EQ(result.exit_code, 2) << command;
    EXPECT_NE(result.err.find("--low"), std::string::npos) << result.err;
    EXPECT_NE(result.err.find("--high"), std::string::npos) << result.err;
    EXPECT_EQ(result.out, "") << command;
  }
}

TEST(CliTest, SweepEmitsCsvSeries) {
  const CliRun result = run({"sweep", "--participants", "10", "--step", "50",
                             "--instances", "20"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  // Header + thresholds 0, 50, 100.
  EXPECT_EQ(result.out.rfind("threshold,surplus", 0), 0u);
  EXPECT_EQ(std::count(result.out.begin(), result.out.end(), '\n'), 4);
}

TEST(CliTest, SweepRejectsNonPositiveStep) {
  EXPECT_EQ(run({"sweep", "--step", "0"}).exit_code, 2);
}

TEST(CliTest, OptimizeFindsCentralThreshold) {
  const CliRun result = run({"optimize", "--buyers", "15", "--sellers", "15",
                             "--instances", "80"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("best threshold"), std::string::npos);
}

TEST(CliTest, SimulateSweepAndOptimizeRejectZeroInstances) {
  // A mean, a curve or a best threshold computed from no instances is no
  // answer.
  for (const char* command : {"simulate", "sweep", "optimize"}) {
    const CliRun result = run({command, "--instances", "0"});
    EXPECT_EQ(result.exit_code, 2) << command;
    EXPECT_TRUE(result.out.empty()) << command;
    EXPECT_NE(result.err.find("--instances out of range [1, "),
              std::string::npos)
        << result.err;
  }
  EXPECT_EQ(run({"simulate", "--instances", "1"}).exit_code, 0);
  EXPECT_EQ(run({"optimize", "--instances", "1"}).exit_code, 0);
  EXPECT_EQ(run({"sweep", "--instances", "1", "--step", "50"}).exit_code, 0);
}

TEST(CliTest, ClearMultiReproducesExample5) {
  const char* book =
      "buyer,0,9;8\nbuyer,1,7\nbuyer,2,6\nbuyer,3,4\n"
      "seller,10,2\nseller,11,3\nseller,12,4\nseller,13,5\nseller,14,7\n";
  const CliRun result = run({"clear-multi", "--threshold", "4.5"}, book);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("3 units traded"), std::string::npos);
  EXPECT_NE(result.out.find("buyer 0 takes 2 unit(s) for 10.5"),
            std::string::npos);
}

TEST(CliTest, ClearMultiCsvFormat) {
  const CliRun result = run(
      {"clear-multi", "--threshold", "5", "--format", "csv"},
      "buyer,0,9\nseller,10,2\n");
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_EQ(result.out.rfind("side,identity,units,total,per_unit\n", 0), 0u);
  EXPECT_NE(result.out.find("buyer,0,1,5,5"), std::string::npos);
}

TEST(CliTest, ClearMultiRejectsIncreasingSchedule) {
  const CliRun result = run({"clear-multi"}, "buyer,0,3;9\n");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(CliTest, SimulateBinomialWorkload) {
  const CliRun result =
      run({"simulate", "--binomial", "20", "--instances", "40"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("B(20,0.5)"), std::string::npos);
}

TEST(CliTest, AttackFindsPmdExample1Manipulation) {
  const CliRun result = run({"attack", "--protocol", "pmd", "--manipulator",
                             "seller:2"},
                            kExample1Book);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("VERDICT: manipulable"), std::string::npos);
  EXPECT_NE(result.out.find("truthful utility: 0.5"), std::string::npos);
}

TEST(CliTest, AttackConfirmsTpdRobustness) {
  const CliRun result = run({"attack", "--protocol", "tpd", "--threshold",
                             "4.5", "--manipulator", "seller:2"},
                            kExample1Book);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("VERDICT: truthful play is optimal"),
            std::string::npos);
}

TEST(CliTest, AttackValidatesManipulatorFlag) {
  EXPECT_EQ(run({"attack"}, kExample1Book).exit_code, 2);
  EXPECT_EQ(run({"attack", "--manipulator", "broker:1"}, kExample1Book)
                .exit_code,
            2);
  // Out-of-range index: a runtime error, not a crash.
  EXPECT_EQ(run({"attack", "--manipulator", "seller:99"}, kExample1Book)
                .exit_code,
            1);
}

TEST(CliTest, SimulateParallelThreads) {
  const CliRun result = run({"simulate", "--buyers", "20", "--sellers", "20",
                             "--instances", "200", "--threads", "4"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("efficiency:"), std::string::npos);
  // Thread-count invariance: byte-identical output at every --threads,
  // including 1 (inline) and 0 (hardware concurrency).
  for (const char* threads : {"0", "1", "2"}) {
    const CliRun other = run({"simulate", "--buyers", "20", "--sellers",
                              "20", "--instances", "200", "--threads",
                              threads});
    EXPECT_EQ(other.exit_code, 0) << other.err;
    EXPECT_EQ(other.out, result.out) << "--threads " << threads;
  }
}

TEST(CliTest, DynamicsTpdStaysTruthful) {
  const CliRun result = run(
      {"dynamics", "--protocol", "tpd", "--threshold", "4.5", "--sweeps",
       "3"},
      kExample1Book);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("converged: yes after 1 sweep"),
            std::string::npos);
  EXPECT_NE(result.out.find("deviating from truth: 0/8"), std::string::npos);
}

TEST(CliTest, DynamicsPmdDrifts) {
  const CliRun result = run(
      {"dynamics", "--protocol", "pmd", "--sweeps", "2"}, kExample1Book);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_EQ(result.out.find("deviating from truth: 0/8"), std::string::npos);
}

TEST(CliTest, DeterministicGivenSeed) {
  const CliRun a = run({"clear", "--seed", "9"}, kExample1Book);
  const CliRun b = run({"clear", "--seed", "9"}, kExample1Book);
  EXPECT_EQ(a.out, b.out);
}

TEST(CliTest, MarketBenchReportsThroughput) {
  const CliRun result =
      run({"market-bench", "--clients", "100", "--rounds", "1", "--shards",
           "2", "--drop", "0.05", "--duplicate", "0.05", "--seed", "3"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("clients: 100"), std::string::npos);
  EXPECT_NE(result.out.find("shards: 2"), std::string::npos);
  EXPECT_NE(result.out.find("msg/s"), std::string::npos);
  EXPECT_NE(result.out.find("rounds/s"), std::string::npos);
  EXPECT_NE(result.out.find("chunk splits"), std::string::npos);
  EXPECT_NE(result.out.find("sorts at close"), std::string::npos);
}

TEST(CliTest, MarketBenchRejectsZeroClients) {
  const CliRun result = run({"market-bench", "--clients", "0"});
  EXPECT_EQ(result.exit_code, 2);
}

TEST(CliTest, MarketBenchRejectsMoreThreadsThanShards) {
  const CliRun result = run({"market-bench", "--clients", "100", "--rounds",
                             "1", "--shards", "4", "--threads", "5"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("--threads"), std::string::npos);
}

TEST(CliTest, MarketBenchMultiThreadedMatchesSingleThreaded) {
  const std::vector<std::string> base = {"market-bench", "--clients", "100",
                                         "--rounds",     "1",         "--shards",
                                         "2",            "--seed",    "3"};
  std::vector<std::string> one = base;
  one.push_back("--threads");
  one.push_back("1");
  std::vector<std::string> two = base;
  two.push_back("--threads");
  two.push_back("2");
  const CliRun run_one = run(one);
  const CliRun run_two = run(two);
  EXPECT_EQ(run_one.exit_code, 0) << run_one.err;
  EXPECT_EQ(run_two.exit_code, 0) << run_two.err;
  EXPECT_NE(run_two.out.find("threads: 2"), std::string::npos);
  // Everything except the threads line and wall-clock rates is identical.
  const auto digest = [](const std::string& out) {
    std::string kept;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) {
      if (line.find("threads:") != std::string::npos) continue;
      if (line.find("/s") != std::string::npos) continue;
      if (line.find("wall") != std::string::npos) continue;
      kept += line;
      kept += '\n';
    }
    return kept;
  };
  EXPECT_EQ(digest(run_one.out), digest(run_two.out));
}

TEST(CliTest, MetricsDumpTableFormat) {
  const CliRun result = run({"metrics-dump", "--clients", "16", "--rounds",
                             "1", "--format", "table"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("name"), std::string::npos);
  EXPECT_NE(result.out.find("counter"), std::string::npos);
  EXPECT_NE(result.out.find("fnda_server_rounds_closed_total"),
            std::string::npos);
}

TEST(CliTest, MetricsDumpQuietValidatesSilently) {
  const CliRun result = run({"metrics-dump", "--clients", "16", "--rounds",
                             "1", "--quiet"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_TRUE(result.out.empty());
}

TEST(CliTest, MetricsDumpMissingInputFileExitsOne) {
  const CliRun result = run({"metrics-dump", "--in", "/nonexistent.prom"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, MetricsDumpMalformedInputExitsOne) {
  const std::string path = testing::TempDir() + "fnda_bad_metrics.prom";
  {
    std::ofstream file(path);
    file << "garbage{\n";
  }
  const CliRun result = run({"metrics-dump", "--in", path});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("prometheus parse error at line 1"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, MetricsDumpParsesItsOwnOutput) {
  const CliRun dump = run({"metrics-dump", "--clients", "16", "--rounds",
                           "1"});
  ASSERT_EQ(dump.exit_code, 0) << dump.err;
  const std::string path = testing::TempDir() + "fnda_roundtrip.prom";
  {
    std::ofstream file(path);
    file << dump.out;
  }
  const CliRun quiet = run({"metrics-dump", "--in", path, "--quiet"});
  EXPECT_EQ(quiet.exit_code, 0) << quiet.err;
  EXPECT_TRUE(quiet.out.empty());
  std::remove(path.c_str());
}

TEST(CliTest, ConsoleInteractiveSessionOverStdin) {
  const CliRun result =
      run({"console", "--shards", "2", "--seed", "7"},
          "status\nrun 1\nhealth\nquit\n");
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("fnda console"), std::string::npos);
  EXPECT_NE(result.out.find("shards: 2"), std::string::npos);
  EXPECT_NE(result.out.find("rounds: 1"), std::string::npos);
  EXPECT_NE(result.out.find("delivery_p99"), std::string::npos);
}

TEST(CliTest, ConsoleJsonReplies) {
  const CliRun result =
      run({"console", "--shards", "2", "--json"}, "status\nquit\n");
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("{\"ok\":true,\"shards\":2"), std::string::npos);
}

TEST(CliTest, ConsoleScriptModeFailsFastOnBadCommand) {
  const std::string path = testing::TempDir() + "fnda_console_script.txt";
  {
    std::ofstream file(path);
    file << "status\nconfig set retained_rounds -5\nstatus\n";
  }
  const CliRun result = run({"console", "--script", path, "--shards", "2"});
  EXPECT_EQ(result.exit_code, 1);
  // The failing command is echoed with its diagnostic; nothing after runs.
  EXPECT_NE(result.out.find("out of range"), std::string::npos);
  EXPECT_EQ(result.out.find("config_generation"),
            result.out.rfind("config_generation"));  // status ran once
  std::remove(path.c_str());
}

TEST(CliTest, ConsoleMissingScriptExitsOne) {
  const CliRun result =
      run({"console", "--script", "/nonexistent-script.txt"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("cannot open script"), std::string::npos);
}

TEST(CliTest, ConsoleSloFileOverridesDefaults) {
  const std::string path = testing::TempDir() + "fnda_console_slo.txt";
  {
    std::ofstream file(path);
    file << "# comment lines are skipped\n"
            "tight max(fnda_epoch_total) <= 0\n";
  }
  const CliRun result =
      run({"console", "--shards", "2", "--slo-file", path},
          "run 2\nhealth\nquit\n");
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("tight max(fnda_epoch_total) <= 0"),
            std::string::npos);
  EXPECT_NE(result.out.find("breaches_total: 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, HelpForOneCommandListsItsOptions) {
  const CliRun result = run({"help", "clear"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("usage: clear [options]"), std::string::npos);
  EXPECT_NE(result.out.find("--threshold real"), std::string::npos);
  EXPECT_NE(result.out.find("--protocol one of tpd pmd vcg kda"),
            std::string::npos);
  EXPECT_EQ(run({"help", "frobnicate"}).exit_code, 2);
}

TEST(CliTest, RejectsNonFiniteAndOutOfRangeReals) {
  const CliRun nan = run({"clear", "--threshold", "nan"}, kExample1Book);
  EXPECT_EQ(nan.exit_code, 2);
  EXPECT_TRUE(nan.out.empty());
  EXPECT_NE(nan.err.find("--threshold"), std::string::npos);
  EXPECT_EQ(run({"clear", "--threshold", "1e300"}, kExample1Book).exit_code,
            2);
  const CliRun drop = run({"market-bench", "--clients", "10", "--rounds", "1",
                           "--shards", "1", "--drop", "7"});
  EXPECT_EQ(drop.exit_code, 2);
  EXPECT_TRUE(drop.out.empty());
  EXPECT_NE(drop.err.find("--drop"), std::string::npos);
}

TEST(CliTest, ManipulatorIndexMustBeANumber) {
  for (const char* spec : {"seller:abc", "seller:", "buyer:-1", "buyer:1x",
                           "buyer:99999999999999999999999"}) {
    EXPECT_EQ(run({"attack", "--manipulator", spec}, kExample1Book).exit_code,
              2)
        << spec;
    EXPECT_EQ(run({"attack-search", "--manipulator", spec}, kExample1Book)
                  .exit_code,
              2)
        << spec;
  }
}

TEST(CliTest, NegativeCountsAreUsageErrorsBeforeAnyWork) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"market-bench", "--clients", "-1"},
           {"metrics-dump", "--clients", "-1"},
           {"console", "--clients", "-1"},
           {"simulate", "--instances", "-1"},
           {"sweep", "--instances", "-1"},
           {"optimize", "--instances", "-1"},
           {"simulate", "--threads", "-1"},
           {"simulate", "--binomial", "4294967296"},
           {"clear", "--seed", "-1"},
           {"attack-search", "--manipulator", "buyer:0", "--replicates",
            "0"}}) {
    const CliRun result = run(args, kExample1Book);
    EXPECT_EQ(result.exit_code, 2) << args[0] << ' ' << args[1];
    EXPECT_TRUE(result.out.empty()) << args[0] << ' ' << args[1];
    EXPECT_NE(result.err.find("out of range"), std::string::npos) << result.err;
  }
}

TEST(CliTest, ThreadsAboveTheBoundAreUsageErrorsBeforeAnyWork) {
  // Parsing only: a rejected option starts no thread.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"simulate", "--threads", "1025"},
           {"attack-search", "--manipulator", "buyer:0", "--threads", "1025"},
           {"market-bench", "--threads", "1025"},
           {"metrics-dump", "--threads", "1025"},
           {"console", "--threads", "1025"}}) {
    const CliRun result = run(args, kExample1Book);
    EXPECT_EQ(result.exit_code, 2) << args[0];
    EXPECT_TRUE(result.out.empty()) << args[0];
    EXPECT_NE(result.err.find("--threads out of range [0, 1024]: 1025"),
              std::string::npos)
        << result.err;
  }
  const CliRun help = run({"help", "simulate"});
  EXPECT_NE(help.out.find("--threads int [0, 1024] (default: 1)"),
            std::string::npos)
      << help.out;
}

TEST(CliTest, RepeatedAndValuelessOptionsAreUsageErrors) {
  EXPECT_EQ(run({"clear", "--seed", "1", "--seed", "2"}, kExample1Book)
                .exit_code,
            2);
  EXPECT_EQ(run({"clear", "--format"}, kExample1Book).exit_code, 2);
  EXPECT_EQ(run({"clear", "--book", "--format", "csv"}, kExample1Book)
                .exit_code,
            2);
  EXPECT_EQ(run({"clear", "stray"}, kExample1Book).exit_code, 2);
  // Bare flags take no value.
  EXPECT_EQ(run({"metrics-dump", "--quiet", "1"}).exit_code, 2);
  // --theta parameterizes only the k-double auction.
  EXPECT_EQ(run({"clear", "--theta", "0.3"}, kExample1Book).exit_code, 2);
  EXPECT_EQ(
      run({"clear", "--protocol", "kda", "--theta", "0.3"}, kExample1Book)
          .exit_code,
      0);
}

}  // namespace
}  // namespace fnda
