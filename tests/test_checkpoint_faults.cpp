/**
 * @file
 * Fault-injection coverage for the crash-safe checkpoint subsystem:
 * truncation at every structural boundary, bit flips in every section,
 * simulated crashes between temp-write and rename, failed writes, v1
 * compatibility, and the atomicity guarantee that the previous
 * checkpoint survives any failed save.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <sys/wait.h>
#endif

#include "core/gist.hpp"
#include "fuzz_util.hpp"
#include "models/tiny.hpp"
#include "train/checkpoint.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

using fuzz::podU32;
using fuzz::podU64;
using fuzz::readBytes;
using fuzz::writeBytes;

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Unique per running test: ctest runs fixture tests concurrently. */
std::string
testScopedPath(const char *suffix)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return tempPath(std::string("faults_") + info->name() + suffix);
}

std::vector<Tensor *>
paramsOf(Graph &g)
{
    std::vector<Tensor *> out;
    for (auto &node : g.nodes())
        if (node.layer)
            for (Tensor *p : node.layer->params())
                out.push_back(p);
    return out;
}

std::vector<Rng *>
rngsOf(Graph &g)
{
    std::vector<Rng *> out;
    for (auto &node : g.nodes())
        if (node.layer)
            for (Rng *r : node.layer->rngStreams())
                out.push_back(r);
    return out;
}

Graph
makeGraph(std::uint64_t seed)
{
    Graph g = models::tinyAlexnet(4);
    Rng rng(seed);
    g.initParams(rng);
    return g;
}

TrainState
makeState(Graph &g)
{
    TrainState st;
    st.epoch = 1;
    st.step = 7;
    st.epoch_offset = 32;
    st.dataset_seed = 42;
    st.lr = 0.025f;
    for (Tensor *p : paramsOf(g)) {
        std::vector<float> v(static_cast<size_t>(p->numel()));
        for (size_t i = 0; i < v.size(); ++i)
            v[i] = 0.001f * static_cast<float>(i % 97);
        st.velocity.push_back(std::move(v));
    }
    return st;
}

/** One section of an on-disk v2 file, located by walking the headers. */
struct SectionLoc
{
    std::uint32_t id;
    std::string name;
    size_t header_off;
    size_t payload_off;
    size_t payload_len;
};

std::string
sectionNameOf(std::uint32_t id)
{
    char chars[5] = { static_cast<char>(id & 0xff),
                      static_cast<char>((id >> 8) & 0xff),
                      static_cast<char>((id >> 16) & 0xff),
                      static_cast<char>((id >> 24) & 0xff), 0 };
    const std::string four(chars);
    if (four == "WGTS") return "weights";
    if (four == "STAT") return "state";
    if (four == "RNGS") return "rng";
    if (four == "VELO") return "velocity";
    if (four == "DCUR") return "dataset";
    if (four == "CTRS") return "counters";
    if (four == "LRSC") return "lr";
    return four;
}

std::vector<SectionLoc>
walkSections(const std::vector<std::uint8_t> &bytes)
{
    EXPECT_GE(bytes.size(), 16u);
    const std::uint32_t count = podU32(bytes, 12);
    std::vector<SectionLoc> out;
    size_t off = 16;
    for (std::uint32_t i = 0; i < count; ++i) {
        SectionLoc s;
        s.header_off = off;
        s.id = podU32(bytes, off);
        s.name = sectionNameOf(s.id);
        s.payload_len = static_cast<size_t>(podU64(bytes, off + 4));
        s.payload_off = off + 16;
        out.push_back(s);
        off = s.payload_off + s.payload_len;
        EXPECT_LE(off, bytes.size());
    }
    EXPECT_EQ(off, bytes.size()) << "sections must cover the whole file";
    return out;
}

// ----------------------------------------------------------- round trip

TEST(CheckpointFaults, FullStateRoundTrip)
{
    Graph a = makeGraph(11);
    // Advance the dropout stream so its state is distinctive.
    ASSERT_FALSE(rngsOf(a).empty());
    rngsOf(a)[0]->next();
    const RngState rng_before = rngsOf(a)[0]->saveState();
    TrainState st = makeState(a);
    const auto path = tempPath("faults_roundtrip.bin");
    saveCheckpoint(a, st, path);

    Graph b = makeGraph(99);
    rngsOf(b)[0]->next();
    rngsOf(b)[0]->next();
    TrainState restored;
    ASSERT_TRUE(loadCheckpoint(b, restored, path));
    EXPECT_EQ(restored.epoch, st.epoch);
    EXPECT_EQ(restored.step, st.step);
    EXPECT_EQ(restored.epoch_offset, st.epoch_offset);
    EXPECT_EQ(restored.dataset_seed, st.dataset_seed);
    EXPECT_EQ(restored.lr, st.lr);
    EXPECT_EQ(restored.velocity, st.velocity);
    const auto pa = paramsOf(a);
    const auto pb = paramsOf(b);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(std::memcmp(pa[i]->data(), pb[i]->data(),
                              static_cast<size_t>(pa[i]->numel()) * 4),
                  0);
    const RngState rng_after = rngsOf(b)[0]->saveState();
    EXPECT_EQ(rng_after.state, rng_before.state);
    EXPECT_EQ(rng_after.have_spare, rng_before.have_spare);
    std::remove(path.c_str());
}

// ------------------------------------------------- corruption rejection

class CheckpointCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        graph = std::make_unique<Graph>(makeGraph(11));
        path = testScopedPath("_good.bin");
        TrainState st = makeState(*graph);
        saveCheckpoint(*graph, st, path);
        good = readBytes(path);
        sections = walkSections(good);
    }

    void
    TearDown() override
    {
        std::remove(path.c_str());
        std::remove(mutated.c_str());
    }

    /** Write a mutated copy and return its path. */
    std::string
    mutate(const std::vector<std::uint8_t> &bytes)
    {
        mutated = testScopedPath("_mutated.bin");
        writeBytes(mutated, bytes);
        return mutated;
    }

    void
    expectLoadFatal(const std::vector<std::uint8_t> &bytes,
                    const char *pattern)
    {
        const std::string p = mutate(bytes);
        Graph target = makeGraph(1);
        TrainState st;
        EXPECT_EXIT(loadCheckpoint(target, st, p),
                    ::testing::ExitedWithCode(1), pattern)
            << "pattern: " << pattern;
    }

    std::unique_ptr<Graph> graph;
    std::string path;
    std::string mutated;
    std::vector<std::uint8_t> good;
    std::vector<SectionLoc> sections;
};

TEST_F(CheckpointCorruption, TruncationAtEveryFieldBoundary)
{
    // Boundaries of the fixed header, every section header field, and
    // mid-payload cuts. Every one must be rejected as truncation (or
    // "not a checkpoint" when even the magic is cut), never as a
    // misleading content error.
    std::set<size_t> cuts = { 0, 1, 7, 8, 11, 12, 15 };
    for (const SectionLoc &s : sections) {
        cuts.insert(s.header_off);      // before this section's header
        cuts.insert(s.header_off + 4);  // after id
        cuts.insert(s.header_off + 12); // after payload size
        cuts.insert(s.payload_off);     // header complete, payload gone
        if (s.payload_len > 1)
            cuts.insert(s.payload_off + s.payload_len / 2);
        cuts.insert(s.payload_off + s.payload_len - 1);
    }
    cuts.erase(good.size()); // the complete file is not a truncation
    for (const size_t cut : cuts) {
        ASSERT_LT(cut, good.size());
        std::vector<std::uint8_t> t(good.begin(),
                                    good.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
        expectLoadFatal(t, "truncated|not a Gist checkpoint");
    }
}

TEST_F(CheckpointCorruption, BitFlipInEachSectionNamesTheSection)
{
    for (const SectionLoc &s : sections) {
        ASSERT_GT(s.payload_len, 0u) << s.name;
        auto flipped = good;
        flipped[s.payload_off + s.payload_len / 2] ^= 0x40;
        const std::string pattern =
            "section '" + s.name + "' CRC mismatch";
        expectLoadFatal(flipped, pattern.c_str());
    }
}

TEST_F(CheckpointCorruption, StoredCrcFlipNamesTheSection)
{
    const SectionLoc &s = sections.front();
    auto flipped = good;
    flipped[s.header_off + 12] ^= 0x01; // a byte of the stored CRC
    const std::string pattern = "section '" + s.name + "' CRC mismatch";
    expectLoadFatal(flipped, pattern.c_str());
}

TEST_F(CheckpointCorruption, FlippedSectionIdReportsMissingSection)
{
    // A corrupted id makes the section unrecognizable; the loader must
    // then report the training state as incomplete, naming the loss.
    for (const SectionLoc &s : sections) {
        if (s.name != "velocity")
            continue;
        auto flipped = good;
        flipped[s.header_off] ^= 0x20; // 'V' -> 'v'
        expectLoadFatal(flipped,
                        "incomplete training state: missing "
                        "section 'velocity'");
    }
}

TEST_F(CheckpointCorruption, TrailingGarbageRejected)
{
    auto padded = good;
    padded.push_back(0xde);
    padded.push_back(0xad);
    expectLoadFatal(padded, "trailing bytes after the last section");
}

TEST_F(CheckpointCorruption, WrongMagicRejected)
{
    auto bad = good;
    bad[0] ^= 0xff;
    expectLoadFatal(bad, "not a Gist checkpoint");
}

TEST_F(CheckpointCorruption, UnsupportedVersionRejected)
{
    auto bad = good;
    const std::uint32_t version = 99;
    std::memcpy(bad.data() + 8, &version, sizeof(version));
    expectLoadFatal(bad, "unsupported checkpoint version 99");
}

TEST_F(CheckpointCorruption, StructureMismatchNamesSectionAndTensor)
{
    Graph other = models::tinyVgg(4);
    Rng rng(2);
    other.initParams(rng);
    TrainState st;
    EXPECT_EXIT(loadCheckpoint(other, st, path),
                ::testing::ExitedWithCode(1), "section 'weights'");
}

// ------------------------------------------------- random-mutation sweep

/**
 * Property: whatever bytes land on disk, the loader either rejects them
 * with a clean error (exit 1 via fatal()) or performs a full round trip
 * (exit 0) — it never crashes on a signal or trips a sanitizer. Run
 * under ASan in CI; seeds follow the fuzz_util conventions, so a
 * failure reproduces with GIST_FUZZ_SEED=<printed seed>.
 */
TEST_F(CheckpointCorruption, RandomMutationSweepNeverCrashes)
{
    const auto accept_clean_exit = [](int status) {
#if defined(_WIN32)
        return status == 0 || status == 1;
#else
        return WIFEXITED(status) && (WEXITSTATUS(status) == 0 ||
                                     WEXITSTATUS(status) == 1);
#endif
    };
    for (const std::uint64_t seed : fuzz::caseSeeds(0x5eedC4Fe, 48)) {
        Rng rng(seed);
        auto bytes = good;
        std::string desc;
        const int mutations = 1 + static_cast<int>(rng.uniformInt(3));
        for (int m = 0; m < mutations; ++m)
            desc += (m ? "; " : "") + fuzz::mutateBytes(bytes, rng);
        const std::string p = mutate(bytes);
        Graph target = makeGraph(1);
        TrainState st;
        EXPECT_EXIT(
            {
                loadCheckpoint(target, st, p);
                std::exit(0);
            },
            accept_clean_exit, "")
            << "GIST_FUZZ_SEED=" << seed << " (" << desc << ")";
    }
}

// ------------------------------------------------------------ atomicity

TEST(CheckpointFaults, CrashBetweenWriteAndRenameKeepsPreviousFile)
{
    Graph g = makeGraph(11);
    TrainState st = makeState(g);
    const auto path = tempPath("faults_crash.bin");
    saveCheckpoint(g, st, path);
    const auto before = readBytes(path);

    // Change the model, then "die" after the temp write.
    paramsOf(g)[0]->data()[0] += 1.0f;
    setCheckpointFault(CheckpointFault::CrashBeforeRename);
    saveCheckpoint(g, st, path);
    EXPECT_EQ(readBytes(path), before)
        << "published checkpoint changed by an unfinished save";
    EXPECT_TRUE(std::ifstream(path + ".tmp").good())
        << "simulated crash should leave the temp file behind";

    // The previous checkpoint is still fully loadable...
    Graph h = makeGraph(99);
    TrainState restored;
    ASSERT_TRUE(loadCheckpoint(h, restored, path));
    EXPECT_NE(paramsOf(h)[0]->data()[0], paramsOf(g)[0]->data()[0]);

    // ...and the next healthy save publishes over the stale temp file.
    saveCheckpoint(g, st, path);
    EXPECT_NE(readBytes(path), before);
    ASSERT_TRUE(loadCheckpoint(h, restored, path));
    EXPECT_EQ(paramsOf(h)[0]->data()[0], paramsOf(g)[0]->data()[0]);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

TEST(CheckpointFaults, FailedWriteLeavesPreviousFileByteIdentical)
{
    Graph g = makeGraph(11);
    TrainState st = makeState(g);
    const auto path = tempPath("faults_shortwrite.bin");
    saveCheckpoint(g, st, path);
    const auto before = readBytes(path);

    paramsOf(g)[0]->data()[0] += 1.0f;
    setCheckpointFault(CheckpointFault::ShortWrite);
    try {
        saveCheckpoint(g, st, path);
        FAIL() << "short write should throw";
    } catch (const std::runtime_error &e) {
        EXPECT_THAT(e.what(), ::testing::ContainsRegex(
                                  "short write.*previous checkpoint.*"
                                  "left intact"));
    }
    EXPECT_EQ(readBytes(path), before)
        << "failed save must not touch the published checkpoint";
    EXPECT_FALSE(std::ifstream(path + ".tmp").good())
        << "failed save should clean up its temp file";
    std::remove(path.c_str());
}

TEST(CheckpointFaults, StaleTempFileIsIgnoredAndReplaced)
{
    Graph g = makeGraph(11);
    TrainState st = makeState(g);
    const auto path = tempPath("faults_staletmp.bin");
    saveCheckpoint(g, st, path);
    writeBytes(path + ".tmp", { 'j', 'u', 'n', 'k' });

    Graph h = makeGraph(99);
    TrainState restored;
    ASSERT_TRUE(loadCheckpoint(h, restored, path)); // temp never read
    saveCheckpoint(g, st, path);                    // temp overwritten
    ASSERT_TRUE(loadCheckpoint(h, restored, path));
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

// ------------------------------------------------------- v1 compatibility

std::vector<std::uint8_t>
makeV1File(Graph &g)
{
    std::vector<std::uint8_t> out;
    const std::uint8_t magic[8] = { 'G', 'I', 'S', 'T',
                                    'C', 'K', 'P', 'T' };
    out.insert(out.end(), magic, magic + 8);
    const std::uint32_t version = 1;
    out.insert(out.end(), reinterpret_cast<const std::uint8_t *>(&version),
               reinterpret_cast<const std::uint8_t *>(&version) + 4);
    const auto params = paramsOf(g);
    const std::uint64_t count = params.size();
    out.insert(out.end(), reinterpret_cast<const std::uint8_t *>(&count),
               reinterpret_cast<const std::uint8_t *>(&count) + 8);
    for (Tensor *p : params) {
        const std::uint64_t numel =
            static_cast<std::uint64_t>(p->numel());
        out.insert(out.end(),
                   reinterpret_cast<const std::uint8_t *>(&numel),
                   reinterpret_cast<const std::uint8_t *>(&numel) + 8);
        const auto *data =
            reinterpret_cast<const std::uint8_t *>(p->data());
        out.insert(out.end(), data,
                   data + static_cast<size_t>(p->numel()) * 4);
    }
    return out;
}

TEST(CheckpointFaults, V1WeightFilesRemainLoadable)
{
    Graph a = makeGraph(11);
    const auto path = tempPath("faults_v1.bin");
    writeBytes(path, makeV1File(a));

    Graph b = makeGraph(99);
    loadWeights(b, path);
    const auto pa = paramsOf(a);
    const auto pb = paramsOf(b);
    for (size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(std::memcmp(pa[i]->data(), pb[i]->data(),
                              static_cast<size_t>(pa[i]->numel()) * 4),
                  0);

    // loadCheckpoint accepts it too, reporting "no training state".
    Graph c = makeGraph(7);
    TrainState st;
    EXPECT_FALSE(loadCheckpoint(c, st, path));
    std::remove(path.c_str());
}

TEST(CheckpointFaults, V1TruncationReportedPreciselyNotAsZeroTensors)
{
    // Regression: a truncated v1 file used to yield zero-initialized
    // reads and errors like "checkpoint has 0 tensors". Every read is
    // now validated where it happens.
    Graph a = makeGraph(11);
    const auto full = makeV1File(a);
    const auto path = tempPath("faults_v1_trunc.bin");
    const size_t cuts[] = { 12, 16, 20, 27, full.size() / 2,
                            full.size() - 1 };
    for (const size_t cut : cuts) {
        ASSERT_LT(cut, full.size());
        writeBytes(path,
                   std::vector<std::uint8_t>(
                       full.begin(),
                       full.begin() + static_cast<std::ptrdiff_t>(cut)));
        Graph b = makeGraph(1);
        EXPECT_EXIT(loadWeights(b, path), ::testing::ExitedWithCode(1),
                    "truncated")
            << "cut at " << cut;
    }
    std::remove(path.c_str());
}

TEST(CheckpointFaults, V1TrailingBytesRejected)
{
    Graph a = makeGraph(11);
    auto padded = makeV1File(a);
    padded.push_back(0x00);
    const auto path = tempPath("faults_v1_trailing.bin");
    writeBytes(path, padded);
    Graph b = makeGraph(1);
    EXPECT_EXIT(loadWeights(b, path), ::testing::ExitedWithCode(1),
                "trailing bytes after the last tensor");
    std::remove(path.c_str());
}

TEST(CheckpointFaults, WeightsOnlyV2ReportsNoTrainingState)
{
    Graph a = makeGraph(11);
    const auto path = tempPath("faults_weights_only.bin");
    saveWeights(a, path);
    Graph b = makeGraph(99);
    TrainState st;
    EXPECT_FALSE(loadCheckpoint(b, st, path));
    const auto pa = paramsOf(a);
    const auto pb = paramsOf(b);
    for (size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(std::memcmp(pa[i]->data(), pb[i]->data(),
                              static_cast<size_t>(pa[i]->numel()) * 4),
                  0);
    std::remove(path.c_str());
}

} // namespace
} // namespace gist
