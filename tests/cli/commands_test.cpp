#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace lc::cli {
namespace {

int run(std::initializer_list<const char*> args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::vector<const char*> argv{"linkcluster"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_command(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

std::string temp_path(const std::string& name) { return testing::TempDir() + "/" + name; }

TEST(Cli, NoArgsPrintsUsageAndFails) {
  std::string err;
  EXPECT_EQ(run({}, nullptr, &err), 1);
  EXPECT_NE(err.find("subcommands"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  std::string out;
  EXPECT_EQ(run({"--help"}, &out), 0);
  EXPECT_NE(out.find("communities"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails) {
  std::string err;
  EXPECT_EQ(run({"frobnicate"}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown subcommand"), std::string::npos);
}

TEST(Cli, GenerateThenStats) {
  const std::string path = temp_path("cli_er.edges");
  std::string out;
  ASSERT_EQ(run({"generate", "--type", "er", "--n", "40", "--p", "0.3", "--seed", "5",
                 "--output", path.c_str()},
                &out),
            0);
  EXPECT_NE(out.find("wrote 40 vertices"), std::string::npos);

  ASSERT_EQ(run({"stats", "--input", path.c_str()}, &out), 0);
  EXPECT_NE(out.find("vertices"), std::string::npos);
  EXPECT_NE(out.find("K2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, GenerateAllTypes) {
  for (const char* type : {"er", "ba", "ws", "complete", "regular"}) {
    const std::string path = temp_path(std::string("cli_all_") + type + ".edges");
    EXPECT_EQ(run({"generate", "--type", type, "--n", "20", "--k", "4", "--output",
                   path.c_str()}),
              0)
        << type;
    std::remove(path.c_str());
  }
}

TEST(Cli, GenerateUnknownTypeFails) {
  const std::string path = temp_path("cli_bad.edges");
  std::string err;
  EXPECT_EQ(run({"generate", "--type", "nope", "--output", path.c_str()}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown --type"), std::string::npos);
}

TEST(Cli, ClusterFineAndCoarseWithExports) {
  const std::string graph_path = temp_path("cli_cluster.edges");
  ASSERT_EQ(run({"generate", "--type", "er", "--n", "30", "--p", "0.3", "--output",
                 graph_path.c_str()}),
            0);
  std::string out;
  ASSERT_EQ(run({"cluster", "--input", graph_path.c_str(), "--mode", "fine"}, &out), 0);
  EXPECT_NE(out.find("dendrogram:"), std::string::npos);

  const std::string newick_path = temp_path("cli_tree.nwk");
  const std::string merges_path = temp_path("cli_merges.txt");
  ASSERT_EQ(run({"cluster", "--input", graph_path.c_str(), "--mode", "coarse", "--newick",
                 newick_path.c_str(), "--merges", merges_path.c_str()},
                &out),
            0);
  EXPECT_NE(out.find("coarse:"), std::string::npos);
  std::ifstream newick(newick_path);
  std::string tree;
  std::getline(newick, tree);
  EXPECT_FALSE(tree.empty());
  EXPECT_EQ(tree.back(), ';');
  std::ifstream merges(merges_path);
  std::string header;
  std::getline(merges, header);
  EXPECT_NE(header.find("# leaves="), std::string::npos);
  std::remove(graph_path.c_str());
  std::remove(newick_path.c_str());
  std::remove(merges_path.c_str());
}

TEST(Cli, ClusterRejectsBadMode) {
  std::string err;
  EXPECT_EQ(run({"cluster", "--input", "x.edges", "--mode", "medium"}, nullptr, &err), 1);
  EXPECT_NE(err.find("fine or coarse"), std::string::npos);
}

TEST(Cli, ClusterRejectsOutOfRangeArguments) {
  // Each is refused before the input is read (it does not exist) and so
  // before any thread pool is built: exit 1, not 2 and not an abort.
  const std::string too_many = std::to_string(parallel::kMaxThreads + 1);
  const std::vector<std::vector<const char*>> cases = {
      {"--gamma", "0.5"}, {"--gamma", "nan"}, {"--phi", "-1"},
      {"--threads", too_many.c_str()}, {"--threads", "1000000000"},
      {"--seed", "-1"}, {"--delta0", "0"}, {"--checkpoint-every-ms", "-5"},
      {"--threads", "0"}, {"--threads", "-4"}, {"--max-memory-mb", "-7"},
      {"--min-similarity", "nan"}};
  for (const std::vector<const char*>& flag : cases) {
    std::vector<const char*> argv{"linkcluster", "cluster", "--input", "/no/such/file.edges",
                                  "--mode", "coarse", flag[0], flag[1]};
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_command(static_cast<int>(argv.size()), argv.data(), out, err), 1)
        << flag[0] << " " << flag[1];
    EXPECT_NE(err.str().find(flag[0]), std::string::npos) << err.str();
  }
}

TEST(Cli, GenerateAndCommunitiesRejectANegativeSeed) {
  // A cast to uint64 would run them with seed 2^64 - 1.
  const std::string path = temp_path("cli_negative_seed.edges");
  std::remove(path.c_str());
  std::string err;
  EXPECT_EQ(run({"generate", "--type", "er", "--n", "50", "--p", "0.1", "--seed", "-1",
                 "--output", path.c_str()},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("--seed must not be negative"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(path));
  err.clear();
  EXPECT_EQ(run({"communities", "--input", "/no/such/file.edges", "--seed", "-1"}, nullptr,
                &err),
            1);
  EXPECT_NE(err.find("--seed must not be negative"), std::string::npos) << err;
}

TEST(Cli, ClusterCoarseRefusesACheckpointDir) {
  // Refused before the input is read: coarse mode reruns an interrupted run.
  const std::string dir = temp_path("cli_coarse_ckpt_dir");
  std::string err;
  EXPECT_EQ(run({"cluster", "--input", "/no/such/file.edges", "--mode", "coarse",
                 "--checkpoint-dir", dir.c_str()},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("coarse mode does not checkpoint"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Cli, RemovedSnapshotFlagsAreUnknown) {
  for (const std::vector<const char*>& argv :
       std::vector<std::vector<const char*>>{
           {"linkcluster", "cluster", "--input", "x.edges", "--snapshot-retries", "2"},
           {"linkcluster", "serve", "--checkpoint-dir", "d"},
           {"linkcluster", "serve", "--checkpoint-every-ms", "0"},
           {"linkcluster", "serve", "--snapshot-retries", "2"},
           {"linkcluster", "serve", "--degrade-after", "5"}}) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_command(static_cast<int>(argv.size()), argv.data(), out, err), 1)
        << argv[1] << " " << argv[argv.size() - 2];
  }
}

TEST(Cli, ServeRejectsTooManyThreads) {
  std::string err;
  const std::string too_many = std::to_string(parallel::kMaxThreads + 1);
  EXPECT_EQ(run({"serve", "--threads", too_many.c_str()}, nullptr, &err), 1);
  EXPECT_NE(err.find("--threads"), std::string::npos) << err;
}

TEST(Cli, ClusterPrintsPassesOnlyWhenABudgetSplitsTheTriangles) {
  const std::string path = temp_path("cli_passes.edges");
  ASSERT_EQ(run({"generate", "--type", "er", "--n", "3000", "--p", "0.01", "--seed", "7",
                 "--output", path.c_str()}),
            0);
  std::string plain;
  ASSERT_EQ(run({"cluster", "--input", path.c_str()}, &plain), 0);
  EXPECT_EQ(plain.find("passes"), std::string::npos) << plain;
  std::string budgeted;
  ASSERT_EQ(run({"cluster", "--input", path.c_str(), "--max-memory-mb", "4"}, &budgeted), 0);
  EXPECT_NE(budgeted.find("passes over the score triangles"), std::string::npos) << budgeted;
  // Everything else, the dendrogram line included, is the unbudgeted run's.
  const auto dendrogram_line = [](const std::string& text) {
    const std::size_t at = text.find("dendrogram:");
    return text.substr(at, text.find('\n', at) - at);
  };
  EXPECT_EQ(dendrogram_line(budgeted), dendrogram_line(plain));
  std::remove(path.c_str());
}

TEST(Cli, MissingInputFileIsRuntimeError) {
  std::string err;
  EXPECT_EQ(run({"stats", "--input", "/no/such/file.edges"}, nullptr, &err), 2);
  EXPECT_NE(err.find("error"), std::string::npos);
}

TEST(Cli, ClusterDeadlineExceededExitsThree) {
  const std::string path = temp_path("cli_deadline.edges");
  ASSERT_EQ(run({"generate", "--type", "er", "--n", "3000", "--p", "0.01", "--seed", "7",
                 "--output", path.c_str()}),
            0);
  std::string err;
  // 1 ms is far below the clustering run time on this graph, so the deadline
  // must trip mid-phase and surface as a Status, not an abort.
  EXPECT_EQ(run({"cluster", "--input", path.c_str(), "--deadline-ms", "1"}, nullptr, &err),
            3);
  EXPECT_NE(err.find("deadline"), std::string::npos);
  // The stop-details line: reason and elapsed time.
  EXPECT_NE(err.find("stopped: deadline exceeded after"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ClusterMemoryBudgetExitsThree) {
  const std::string path = temp_path("cli_budget.edges");
  ASSERT_EQ(run({"generate", "--type", "er", "--n", "3000", "--p", "0.01", "--seed", "7",
                 "--output", path.c_str()}),
            0);
  std::string err;
  EXPECT_EQ(run({"cluster", "--input", path.c_str(), "--max-memory-mb", "1"}, nullptr, &err),
            3);
  EXPECT_NE(err.find("resource exhausted"), std::string::npos);
  EXPECT_NE(err.find("memory budget"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ClusterNoDeadlineByDefault) {
  const std::string path = temp_path("cli_nodeadline.edges");
  ASSERT_EQ(run({"generate", "--type", "er", "--n", "40", "--p", "0.2", "--output",
                 path.c_str()}),
            0);
  std::string out;
  EXPECT_EQ(run({"cluster", "--input", path.c_str(), "--max-memory-mb", "0"}, &out), 0);
  EXPECT_NE(out.find("dendrogram:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ClusterZeroDeadlineTripsOnFirstPoll) {
  // An explicit 0 arms a deadline that is already past, so the run stops at
  // the first poll instead of underflowing into "unlimited".
  const std::string path = temp_path("cli_zerodeadline.edges");
  ASSERT_EQ(run({"generate", "--type", "er", "--n", "40", "--p", "0.2", "--output",
                 path.c_str()}),
            0);
  std::string err;
  EXPECT_EQ(run({"cluster", "--input", path.c_str(), "--deadline-ms", "0"}, nullptr, &err),
            3);
  EXPECT_NE(err.find("stopped: deadline exceeded after"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ClusterCheckpointResumeRoundTrip) {
  const std::string path = temp_path("cli_ckpt.edges");
  const std::string dir = temp_path("cli_ckpt_dir");
  const std::string merges_a = temp_path("cli_ckpt_a.txt");
  const std::string merges_b = temp_path("cli_ckpt_b.txt");
  ASSERT_EQ(run({"generate", "--type", "er", "--n", "200", "--p", "0.05", "--seed", "7",
                 "--output", path.c_str()}),
            0);
  std::string out;
  ASSERT_EQ(run({"cluster", "--input", path.c_str(), "--checkpoint-dir", dir.c_str(),
                 "--checkpoint-every-ms", "0", "--merges", merges_a.c_str()},
                &out),
            0);
  EXPECT_NE(out.find("checkpointing to"), std::string::npos);

  ASSERT_EQ(run({"cluster", "--input", path.c_str(), "--checkpoint-dir", dir.c_str(),
                 "--resume", "--merges", merges_b.c_str()},
                &out),
            0);
  EXPECT_NE(out.find("resuming from"), std::string::npos);

  auto slurp = [](const std::string& file) {
    std::ifstream in(file);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  };
  const std::string reference = slurp(merges_a);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(slurp(merges_b), reference);

  std::remove(path.c_str());
  std::remove(merges_a.c_str());
  std::remove(merges_b.c_str());
  std::filesystem::remove_all(dir);
}

TEST(Cli, ClusterResumeRequiresCheckpointDir) {
  std::string err;
  EXPECT_EQ(run({"cluster", "--input", "x.edges", "--resume"}, nullptr, &err), 1);
  EXPECT_NE(err.find("--resume requires --checkpoint-dir"), std::string::npos);
}

TEST(Cli, ClusterStopPrintsCheckpointHintWhenSnapshotExists) {
  const std::string path = temp_path("cli_ckpt_hint.edges");
  const std::string dir = temp_path("cli_ckpt_hint_dir");
  ASSERT_EQ(run({"generate", "--type", "er", "--n", "120", "--p", "0.08", "--seed", "9",
                 "--output", path.c_str()}),
            0);
  // Leave a snapshot behind, then stop a second run before it does anything:
  // the exit-3 report must point at the snapshot and the --resume flag.
  ASSERT_EQ(run({"cluster", "--input", path.c_str(), "--checkpoint-dir", dir.c_str(),
                 "--checkpoint-every-ms", "0"}),
            0);
  std::string err;
  EXPECT_EQ(run({"cluster", "--input", path.c_str(), "--checkpoint-dir", dir.c_str(),
                 "--checkpoint-every-ms", "0", "--deadline-ms", "0"},
                nullptr, &err),
            3);
  EXPECT_NE(err.find("checkpoint: "), std::string::npos);
  EXPECT_NE(err.find("--resume"), std::string::npos);
  std::remove(path.c_str());
  std::filesystem::remove_all(dir);
}

TEST(Cli, MalformedInputLinesWarnOnStderr) {
  const std::string path = temp_path("cli_malformed.edges");
  {
    std::ofstream file(path);
    file << "0 1 1.0\n1 2 abc\n2 3 inf\n3 4\n4 5 2.0\n";
  }
  std::string err;
  ASSERT_EQ(run({"stats", "--input", path.c_str()}, nullptr, &err), 0);
  EXPECT_NE(err.find("warning: skipped 2 malformed line(s)"), std::string::npos);

  err.clear();
  ASSERT_EQ(run({"cluster", "--input", path.c_str()}, nullptr, &err), 0);
  EXPECT_NE(err.find("warning: skipped 2 malformed line(s)"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, CommunitiesOnTwoTriangles) {
  const std::string path = temp_path("cli_tri.edges");
  {
    std::ofstream file(path);
    file << "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3 0.4\n";
  }
  std::string out;
  ASSERT_EQ(run({"communities", "--input", path.c_str(), "--top", "5"}, &out), 0);
  EXPECT_NE(out.find("partition density"), std::string::npos);
  EXPECT_NE(out.find("communities over"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, AssocBuildsGraphFromCorpus) {
  const std::string corpus_path = temp_path("cli_corpus.txt");
  {
    std::ofstream file(corpus_path);
    file << "alpha bravo charlie\n"
            "alpha bravo\n"
            "charlie delta\n"
            "alpha bravo delta\n";
  }
  const std::string edges_path = temp_path("cli_assoc.edges");
  const std::string words_path = temp_path("cli_assoc.words");
  std::string out;
  ASSERT_EQ(run({"assoc", "--input", corpus_path.c_str(), "--alpha", "1.0", "--output",
                 edges_path.c_str(), "--words", words_path.c_str()},
                &out),
            0);
  EXPECT_NE(out.find("4 documents"), std::string::npos);
  // The strongest association (alpha, bravo: always together) must be an edge.
  std::ifstream words(words_path);
  std::string line;
  bool saw_alpha = false;
  while (std::getline(words, line)) {
    if (line.find("alpha") != std::string::npos) saw_alpha = true;
  }
  EXPECT_TRUE(saw_alpha);
  std::ifstream edges(edges_path);
  std::size_t edge_lines = 0;
  while (std::getline(edges, line)) {
    if (!line.empty() && line[0] != '#') ++edge_lines;
  }
  EXPECT_GT(edge_lines, 0u);
  std::remove(corpus_path.c_str());
  std::remove(edges_path.c_str());
  std::remove(words_path.c_str());
}

TEST(Cli, AssocMissingCorpusFails) {
  std::string err;
  EXPECT_EQ(run({"assoc", "--input", "/no/such.txt", "--output", "/tmp/x.edges"}, nullptr,
                &err),
            2);
  EXPECT_NE(err.find("error"), std::string::npos);
}

TEST(Cli, CommunitiesEmptyGraph) {
  const std::string path = temp_path("cli_empty.edges");
  {
    std::ofstream file(path);
    file << "# no edges\n";
  }
  std::string out;
  EXPECT_EQ(run({"communities", "--input", path.c_str()}, &out), 0);
  EXPECT_NE(out.find("no edges"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lc::cli
