// Smoke tests for the ppcguard CLI: every subcommand runs end-to-end and
// produces the expected artifacts/exit codes. PPCGUARD_BIN is injected by
// CMake.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

std::string bin() { return PPCGUARD_BIN; }

struct RunResult {
  int exit_code;
  std::string output;
};

RunResult run(const std::string& args) {
  const std::string cmd = bin() + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    output += buf.data();
  }
  const int status = pclose(pipe);
  return {WEXITSTATUS(status), output};
}

TEST(Cli, NoArgsPrintsUsageAndFails) {
  const auto r = run("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  EXPECT_EQ(run("frobnicate").exit_code, 2);
}

TEST(Cli, PlanPrintsBothAlgorithms) {
  const auto r = run("plan --window-n=65536 --q=8 --fpr=0.01");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("GBF"), std::string::npos);
  EXPECT_NE(r.output.find("TBF"), std::string::npos);
  EXPECT_NE(r.output.find("memory ratio"), std::string::npos);
}

TEST(Cli, GenDetectAuditPipeline) {
  const std::string trace = ::testing::TempDir() + "/cli_pipe.bin";

  const auto gen = run("gen --out=" + trace +
                       " --clicks=50000 --kind=botnet --bots=10");
  EXPECT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote 50000"), std::string::npos);

  const auto detect =
      run("detect --trace=" + trace + " --window=sliding:10000");
  EXPECT_EQ(detect.exit_code, 0) << detect.output;
  EXPECT_NE(detect.output.find("TBF"), std::string::npos);
  EXPECT_NE(detect.output.find("duplicate"), std::string::npos);

  const auto audit =
      run("audit --trace=" + trace + " --window=jumping:10000:8");
  EXPECT_EQ(audit.exit_code, 0) << audit.output;
  EXPECT_NE(audit.output.find("agreement"), std::string::npos);
  EXPECT_NE(audit.output.find("top duplicate sources"), std::string::npos);

  std::remove(trace.c_str());
}

TEST(Cli, DetectRequiresTraceFlag) {
  const auto r = run("detect --window=sliding:100");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--trace is required"), std::string::npos);
}

TEST(Cli, BadWindowSyntaxIsReported) {
  const auto r = run("detect --trace=/nonexistent --window=circular:9");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--window: unrecognized window spec"),
            std::string::npos)
      << r.output;
}

TEST(Cli, MalformedNumberIsRefused) {
  // Strict parsing: "16x" is not read as 16.
  const auto r = run("plan --window-n=16x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("invalid value for --window-n: '16x'"),
            std::string::npos)
      << r.output;
}

TEST(Cli, UnknownPolicyOrKindIsRefused) {
  const auto policy = run("detect --trace=/nonexistent --policy=bogus");
  EXPECT_EQ(policy.exit_code, 2);
  EXPECT_NE(policy.output.find("invalid value for --policy: 'bogus'"),
            std::string::npos)
      << policy.output;
  const auto kind = run("gen --out=/nonexistent/x --kind=bogus");
  EXPECT_EQ(kind.exit_code, 2);
  EXPECT_NE(kind.output.find("invalid value for --kind: 'bogus'"),
            std::string::npos)
      << kind.output;
}

TEST(Cli, UnknownFlagIsRefused) {
  const auto r = run("plan --windw=16");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag --windw"), std::string::npos)
      << r.output;
  // A flag another command reads is still unknown to this one.
  EXPECT_EQ(run("plan --trace=x").exit_code, 2);
}

}  // namespace
