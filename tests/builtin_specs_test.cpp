// Golden pins for the nine builtin protocols. specs/*.cta is their only
// encoding: the build embeds the texts and ProtocolRegistry::with_builtins()
// lowers them on make(). The literals below were taken from the hand-coded
// C++ builders the specs replaced, so a builtin still lowers to the same
// automaton (system fingerprint, before and after the Fig.-6 refinement)
// and plans the same proof obligations under the same cache keys: proof
// caches and journals written before the switch stay valid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "frontend/lower.h"
#include "frontend/registry.h"
#include "util/hash.h"
#include "verify/cache_key.h"
#include "verify/pipeline.h"

namespace ctaver::frontend {
namespace {

std::string spec_dir() {
  const char* dir = std::getenv("CTAVER_SPEC_DIR");
  return dir != nullptr ? dir : "specs";
}

/// sha256 over the planned obligations' (name, kind, cache key) lines.
std::string cache_keys_digest(const protocols::ProtocolModel& pm) {
  std::string acc;
  for (const verify::ObligationKey& k : verify::obligation_cache_keys(pm)) {
    acc += k.name + (k.parametric ? " p " : " s ") + k.key + "\n";
  }
  return util::sha256_hex(acc);
}

struct Pin {
  const char* name;
  const char* system_fp;
  const char* refined_fp;
  const char* keys_digest;
};

// Table-II order, which with_builtins() keeps.
constexpr Pin kPins[] = {
    {"NaiveVoting",
     "cece09565791c060023b1097c262c4c44d8d9dab115bea513f2a475f8e6b54a5",
     "cece09565791c060023b1097c262c4c44d8d9dab115bea513f2a475f8e6b54a5",
     "bc071c35429769c439b33ff530389afbaa38f1373fda5156f73be6acea5e85c8"},
    {"Rabin83",
     "65b90cf4d6f65eb5030ac74a32b8c286ccc40fb8e814275da758dbed7a452b8c",
     "65b90cf4d6f65eb5030ac74a32b8c286ccc40fb8e814275da758dbed7a452b8c",
     "2e022356d36c0c7bcdd48c530b246ec36b377784c670b59e804518bd5dabb8a4"},
    {"CC85a",
     "1344056c3fe9822fbfb7444c7a196ae1a7ac5cd173a96ced78fb0d10a39170e2",
     "1344056c3fe9822fbfb7444c7a196ae1a7ac5cd173a96ced78fb0d10a39170e2",
     "1e7045341c28dfaa5963fa020126ae25834afe6da32ebf918476847e97a9d547"},
    {"CC85b",
     "0846b429a56e63fd50113e17fe9b49130d04943d3a3b313e2b6f008e3ec90dde",
     "0846b429a56e63fd50113e17fe9b49130d04943d3a3b313e2b6f008e3ec90dde",
     "3947424d20805b99e5089e5db500c07117939c853f01a56dcc4d46dcfb823074"},
    {"FMR05",
     "c0c77876a8aac4e222b5285f74b4d2020e2ea3bcfdf38299b20ed34610fad3f9",
     "c0c77876a8aac4e222b5285f74b4d2020e2ea3bcfdf38299b20ed34610fad3f9",
     "5b8f0b5c2d0bff28db081650c9ae64930feaaccc23a2c2914b1581d31c2a059b"},
    {"KS16",
     "6fc35eb7f96be0d2b18cf22c7107e4756036f64394f40542e9fe58a6bb7dccd7",
     "6fc35eb7f96be0d2b18cf22c7107e4756036f64394f40542e9fe58a6bb7dccd7",
     "df58cc26487ae0e05e5b3a0c59d5aabc06b77d31d1ed6fcc57f01972fb38be7d"},
    {"MMR14",
     "007687940e291d511cc1d7dadbc269578fe88c5065e5e5fe81e66d3b94f53777",
     "2ed07c1ba77a865828b24368dc1eed5c98f90465834876f27ab18902fa3aea76",
     "6466db8226a6deb5e4385a04c73bd11d95b1a45a232457c405b05050bfd612a3"},
    {"Miller18",
     "890c8ef2c7491939e819ac3d0c4c12114484a3042c2570dd238d0a80fe48bade",
     "890c8ef2c7491939e819ac3d0c4c12114484a3042c2570dd238d0a80fe48bade",
     "badce47bfb26d64e6c2273def3809f96b11cc0b49424dc012cbff7294e53b19d"},
    {"ABY22",
     "2f841a3edaa8e034a0f149466121358bcf1846e9bc2ee8040b2c01b0de094430",
     "2f841a3edaa8e034a0f149466121358bcf1846e9bc2ee8040b2c01b0de094430",
     "536b1b97025699fa1e01ed9533e18c65f28f9c87ab9b73613bce245e84e7bacd"},
};

TEST(BuiltinSpecs, RegistryListsTheNineInTableTwoOrder) {
  ProtocolRegistry r = ProtocolRegistry::with_builtins();
  std::vector<std::string> want;
  for (const Pin& p : kPins) want.push_back(p.name);
  EXPECT_EQ(r.names(), want);
  for (const Pin& p : kPins) EXPECT_EQ(r.origin(p.name), "builtin");
}

class BuiltinPins : public ::testing::TestWithParam<Pin> {};

TEST_P(BuiltinPins, LowersToThePinnedModel) {
  const Pin& p = GetParam();
  protocols::ProtocolModel pm = builtin(p.name);
  EXPECT_EQ(pm.name, p.name);
  EXPECT_EQ(verify::system_fingerprint(pm.system), p.system_fp);
  EXPECT_EQ(verify::system_fingerprint(pm.refined()), p.refined_fp);
  EXPECT_EQ(cache_keys_digest(pm), p.keys_digest);
}

INSTANTIATE_TEST_SUITE_P(AllBuiltins, BuiltinPins, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<Pin>& info) {
                           return std::string(info.param.name);
                         });

// A builtin carries its spec's whole `expect` block: the registry hands
// `ctaver check` the same expectation surface as loading the file directly.
TEST(RoundTripExpect, ExpectationsSurviveTheRegistry) {
  ProtocolRegistry r = ProtocolRegistry::with_builtins();
  protocols::ProtocolModel pm = r.make("MMR14");
  ASSERT_EQ(pm.expects.size(), 9u);
  int violated = 0;
  for (const protocols::ExpectedVerdict& e : pm.expects) {
    if (e.violated) {
      ++violated;
      EXPECT_TRUE(e.obligation == "CB2" || e.obligation == "CB3")
          << e.obligation;
    }
  }
  EXPECT_EQ(violated, 2);
  ASSERT_TRUE(pm.attack.has_value());
  EXPECT_EQ(pm.attack->script, "split_vote");
  EXPECT_EQ(pm.attack->simulator, "mmr14");
  EXPECT_EQ(pm.attack->n, 4);
  EXPECT_EQ(pm.attack->t, 1);
  EXPECT_EQ(pm.attack->inputs, (std::vector<int>{0, 0, 1}));
  EXPECT_FALSE(pm.attack->expect_decision);

  // The embedded text is the checked-in file's: direct load and registry
  // factory agree verbatim.
  protocols::ProtocolModel direct = load_spec_file(spec_dir() + "/mmr14.cta");
  ASSERT_EQ(direct.expects.size(), pm.expects.size());
  for (std::size_t i = 0; i < direct.expects.size(); ++i) {
    EXPECT_EQ(direct.expects[i].obligation, pm.expects[i].obligation);
    EXPECT_EQ(direct.expects[i].violated, pm.expects[i].violated);
  }
  ASSERT_TRUE(direct.attack.has_value());
  EXPECT_EQ(direct.attack->script, pm.attack->script);
  EXPECT_EQ(direct.attack->simulator, pm.attack->simulator);
  EXPECT_EQ(direct.attack->inputs, pm.attack->inputs);
  EXPECT_EQ(direct.attack->rounds, pm.attack->rounds);
  EXPECT_EQ(direct.attack->seed, pm.attack->seed);
}

// Every builtin declares a verdict surface drawn from its category's
// obligation vocabulary (the lowering enforces this; pin it for the corpus).
TEST(RoundTripExpect, AllSpecsDeclareValidSurfaces) {
  for (const Pin& p : kPins) {
    protocols::ProtocolModel pm = builtin(p.name);
    EXPECT_FALSE(pm.expects.empty()) << p.name;
    std::vector<std::string> vocab = protocols::obligation_names(pm.category);
    for (const protocols::ExpectedVerdict& e : pm.expects) {
      EXPECT_NE(std::find(vocab.begin(), vocab.end(), e.obligation),
                vocab.end())
          << p.name << ": " << e.obligation;
    }
  }
}

}  // namespace
}  // namespace ctaver::frontend
