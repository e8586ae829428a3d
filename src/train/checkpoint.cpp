#include "train/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/logging.hpp"

namespace gist {

namespace {

constexpr char kMagic[8] = { 'G', 'I', 'S', 'T', 'C', 'K', 'P', 'T' };
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionV2 = 2;

constexpr std::uint32_t
fourcc(char a, char b, char c, char d)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr std::uint32_t kSecWeights = fourcc('W', 'G', 'T', 'S');
constexpr std::uint32_t kSecState = fourcc('S', 'T', 'A', 'T');
constexpr std::uint32_t kSecRng = fourcc('R', 'N', 'G', 'S');
constexpr std::uint32_t kSecVelocity = fourcc('V', 'E', 'L', 'O');
constexpr std::uint32_t kSecDataset = fourcc('D', 'C', 'U', 'R');
constexpr std::uint32_t kSecCounters = fourcc('C', 'T', 'R', 'S');
constexpr std::uint32_t kSecLr = fourcc('L', 'R', 'S', 'C');

const char *
sectionName(std::uint32_t id)
{
    switch (id) {
      case kSecWeights: return "weights";
      case kSecState: return "state";
      case kSecRng: return "rng";
      case kSecVelocity: return "velocity";
      case kSecDataset: return "dataset";
      case kSecCounters: return "counters";
      case kSecLr: return "lr";
    }
    return "?";
}

CheckpointFault g_fault = CheckpointFault::None;

CheckpointFault
consumeFault()
{
    const CheckpointFault f = g_fault;
    g_fault = CheckpointFault::None;
    return f;
}

// ------------------------------------------------------- graph accessors

std::vector<Tensor *>
paramsOf(Graph &graph)
{
    std::vector<Tensor *> out;
    for (auto &node : graph.nodes())
        if (node.layer)
            for (Tensor *p : node.layer->params())
                out.push_back(p);
    return out;
}

std::vector<Tensor *>
stateOf(Graph &graph)
{
    std::vector<Tensor *> out;
    for (auto &node : graph.nodes())
        if (node.layer)
            for (Tensor *t : node.layer->stateTensors())
                out.push_back(t);
    return out;
}

std::vector<Rng *>
rngsOf(Graph &graph)
{
    std::vector<Rng *> out;
    for (auto &node : graph.nodes())
        if (node.layer)
            for (Rng *r : node.layer->rngStreams())
                out.push_back(r);
    return out;
}

// ----------------------------------------------------------- serializing

using Bytes = std::vector<std::uint8_t>;

void
putRaw(Bytes &buf, const void *src, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(src);
    buf.insert(buf.end(), p, p + n);
}

template <typename T>
void
putPod(Bytes &buf, const T &value)
{
    putRaw(buf, &value, sizeof(T));
}

Bytes
tensorListPayload(const std::vector<Tensor *> &tensors)
{
    Bytes out;
    putPod(out, static_cast<std::uint64_t>(tensors.size()));
    for (Tensor *t : tensors) {
        GIST_ASSERT(!t->empty(), "cannot checkpoint unallocated tensors");
        putPod(out, static_cast<std::uint64_t>(t->numel()));
        putRaw(out, t->data(),
               static_cast<std::size_t>(t->numel()) * sizeof(float));
    }
    return out;
}

Bytes
velocityPayload(const std::vector<std::vector<float>> &velocity)
{
    Bytes out;
    putPod(out, static_cast<std::uint64_t>(velocity.size()));
    for (const auto &v : velocity) {
        putPod(out, static_cast<std::uint64_t>(v.size()));
        putRaw(out, v.data(), v.size() * sizeof(float));
    }
    return out;
}

Bytes
rngPayload(const std::vector<Rng *> &rngs)
{
    Bytes out;
    putPod(out, static_cast<std::uint32_t>(rngs.size()));
    for (const Rng *r : rngs) {
        const RngState s = r->saveState();
        putPod(out, s.state);
        putPod(out, s.spare_bits);
        putPod(out, static_cast<std::uint8_t>(s.have_spare));
    }
    return out;
}

struct SectionOut
{
    std::uint32_t id;
    Bytes payload;
};

Bytes
assembleFile(const std::vector<SectionOut> &sections)
{
    Bytes out;
    putRaw(out, kMagic, sizeof(kMagic));
    putPod(out, kVersionV2);
    putPod(out, static_cast<std::uint32_t>(sections.size()));
    for (const SectionOut &s : sections) {
        putPod(out, s.id);
        putPod(out, static_cast<std::uint64_t>(s.payload.size()));
        putPod(out, crc32(s.payload.data(), s.payload.size()));
        putRaw(out, s.payload.data(), s.payload.size());
    }
    return out;
}

/**
 * Publish @p bytes at @p path via temp file + fsync + atomic rename.
 * Any failure (or injected fault) leaves the previous file untouched.
 */
void
publishFile(const std::string &path, const Bytes &bytes)
{
    const CheckpointFault fault = consumeFault();
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw std::runtime_error(detail::composeMessage(
            "cannot open ", tmp, " for writing"));
    std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    if (fault == CheckpointFault::ShortWrite)
        written = bytes.size() / 2;
    if (written != bytes.size() || std::fflush(f) != 0) {
        std::fclose(f);
        std::remove(tmp.c_str());
        throw std::runtime_error(detail::composeMessage(
            "short write to ", tmp, " (", written, " of ", bytes.size(),
            " bytes); previous checkpoint at ", path, " left intact"));
    }
    if (::fsync(::fileno(f)) != 0) {
        std::fclose(f);
        std::remove(tmp.c_str());
        throw std::runtime_error(detail::composeMessage(
            "fsync failed for ", tmp, "; previous checkpoint at ", path,
            " left intact"));
    }
    std::fclose(f);
    if (fault == CheckpointFault::CrashBeforeRename)
        return; // simulated kill: durable temp file, no publication
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error(detail::composeMessage(
            "cannot rename ", tmp, " over ", path,
            "; previous checkpoint left intact"));
    }
    // Make the rename itself durable (best effort: some filesystems
    // reject directory fsync).
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

// ------------------------------------------------------------- parsing

/** Bounds-checked reader over an in-memory span of the file. */
struct Cursor
{
    const std::uint8_t *base;
    std::size_t len;
    std::size_t off = 0;
    /** Section (or structure) name used in truncation errors. */
    const char *what;

    std::size_t remaining() const { return len - off; }

    const std::uint8_t *
    take(std::size_t n)
    {
        if (remaining() < n)
            GIST_FATAL("checkpoint section '", what, "' truncated (need ",
                       n, " bytes, ", remaining(), " left)");
        const std::uint8_t *p = base + off;
        off += n;
        return p;
    }

    template <typename T>
    T
    pod()
    {
        T value;
        std::memcpy(&value, take(sizeof(T)), sizeof(T));
        return value;
    }
};

void
parseTensorList(Cursor &cur, const std::vector<Tensor *> &tensors)
{
    const auto count = cur.pod<std::uint64_t>();
    if (count != tensors.size())
        GIST_FATAL("checkpoint section '", cur.what, "' has ", count,
                   " tensors, graph expects ", tensors.size());
    for (std::size_t i = 0; i < tensors.size(); ++i) {
        Tensor *t = tensors[i];
        const auto numel = cur.pod<std::uint64_t>();
        if (numel != static_cast<std::uint64_t>(t->numel()))
            GIST_FATAL("checkpoint section '", cur.what, "': tensor ", i,
                       " has ", numel, " elements, graph expects ",
                       t->numel());
        if (t->empty())
            t->reallocate();
        std::memcpy(t->data(),
                    cur.take(static_cast<std::size_t>(numel) *
                             sizeof(float)),
                    static_cast<std::size_t>(numel) * sizeof(float));
    }
}

void
parseVelocity(Cursor &cur, std::vector<std::vector<float>> &velocity,
              const std::vector<Tensor *> &params)
{
    const auto count = cur.pod<std::uint64_t>();
    if (count != params.size())
        GIST_FATAL("checkpoint section 'velocity' has ", count,
                   " tensors, graph expects ", params.size());
    velocity.clear();
    for (std::size_t i = 0; i < params.size(); ++i) {
        const auto numel = cur.pod<std::uint64_t>();
        if (numel != static_cast<std::uint64_t>(params[i]->numel()))
            GIST_FATAL("checkpoint section 'velocity': tensor ", i,
                       " has ", numel, " elements, graph expects ",
                       params[i]->numel());
        std::vector<float> v(static_cast<std::size_t>(numel));
        std::memcpy(v.data(),
                    cur.take(v.size() * sizeof(float)),
                    v.size() * sizeof(float));
        velocity.push_back(std::move(v));
    }
}

void
parseRng(Cursor &cur, const std::vector<Rng *> &rngs)
{
    const auto count = cur.pod<std::uint32_t>();
    if (count != rngs.size())
        GIST_FATAL("checkpoint section 'rng' has ", count,
                   " streams, graph expects ", rngs.size());
    for (Rng *r : rngs) {
        RngState s;
        s.state = cur.pod<std::uint64_t>();
        s.spare_bits = cur.pod<std::uint32_t>();
        s.have_spare = cur.pod<std::uint8_t>() != 0;
        r->restoreState(s);
    }
}

void
endSection(const Cursor &cur)
{
    if (cur.remaining() != 0)
        GIST_FATAL("checkpoint section '", cur.what, "' has ",
                   cur.remaining(), " trailing payload bytes");
}

Bytes
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        GIST_FATAL("cannot open ", path, " for reading");
    const auto size = static_cast<std::size_t>(in.tellg());
    Bytes bytes(size);
    in.seekg(0);
    in.read(reinterpret_cast<char *>(bytes.data()),
            static_cast<std::streamsize>(size));
    if (!in)
        GIST_FATAL("read error on ", path);
    return bytes;
}

/**
 * Load a v1 (pre-section) file: magic, u32 version, u64 tensor count,
 * then per tensor u64 numel + FP32 data. Every field read is bounds-
 * checked so truncation is reported where it happened, not as a
 * misleading downstream mismatch; trailing bytes are rejected.
 */
void
loadV1(Cursor &cur, Graph &graph, const std::string &path)
{
    cur.what = "weights";
    parseTensorList(cur, paramsOf(graph));
    if (cur.remaining() != 0)
        GIST_FATAL(path, " has ", cur.remaining(),
                   " trailing bytes after the last tensor");
    if (!stateOf(graph).empty())
        GIST_WARN(path, " is a v1 checkpoint with no model-state ",
                  "section; batchnorm running statistics keep their ",
                  "current values");
}

/** Sections of a v2 file, CRC-validated, keyed by id. */
std::map<std::uint32_t, Cursor>
splitSections(Cursor &cur, const std::string &path)
{
    cur.what = "file header";
    const auto section_count = cur.pod<std::uint32_t>();
    std::map<std::uint32_t, Cursor> sections;
    for (std::uint32_t i = 0; i < section_count; ++i) {
        cur.what = "section header";
        const auto id = cur.pod<std::uint32_t>();
        const auto bytes = cur.pod<std::uint64_t>();
        const auto stored_crc = cur.pod<std::uint32_t>();
        cur.what = sectionName(id);
        if (cur.remaining() < bytes)
            GIST_FATAL("checkpoint section '", sectionName(id),
                       "' truncated (need ", bytes, " bytes, ",
                       cur.remaining(), " left)");
        const std::uint8_t *payload = cur.base + cur.off;
        cur.off += static_cast<std::size_t>(bytes);
        const std::uint32_t computed =
            crc32(payload, static_cast<std::size_t>(bytes));
        if (computed != stored_crc)
            GIST_FATAL("checkpoint section '", sectionName(id),
                       "' CRC mismatch (file corrupt)");
        if (sections.count(id))
            GIST_FATAL("duplicate checkpoint section '", sectionName(id),
                       "'");
        if (sectionName(id)[0] == '?') {
            GIST_WARN(path, ": skipping unknown checkpoint section id ",
                      id);
            continue;
        }
        sections.emplace(
            id, Cursor{ payload, static_cast<std::size_t>(bytes), 0,
                        sectionName(id) });
    }
    if (cur.remaining() != 0)
        GIST_FATAL(path, " has ", cur.remaining(),
                   " trailing bytes after the last section");
    return sections;
}

/**
 * Shared v1/v2 load. @p state may be null (weights-only request).
 * @return true when full training state was present and restored.
 */
bool
loadFile(Graph &graph, TrainState *state, const std::string &path)
{
    GIST_TRACE_SCOPE("checkpoint", "restore");
    const Bytes bytes = readFile(path);
    Cursor cur{ bytes.data(), bytes.size(), 0, "file header" };
    if (cur.remaining() < sizeof(kMagic) + sizeof(std::uint32_t) ||
        std::memcmp(cur.take(sizeof(kMagic)), kMagic, sizeof(kMagic)) !=
            0)
        GIST_FATAL(path, " is not a Gist checkpoint");
    const auto version = cur.pod<std::uint32_t>();
    if (version == kVersionV1) {
        loadV1(cur, graph, path);
        return false;
    }
    if (version != kVersionV2)
        GIST_FATAL("unsupported checkpoint version ", version);

    auto sections = splitSections(cur, path);
    const auto find = [&](std::uint32_t id) -> Cursor * {
        auto it = sections.find(id);
        return it == sections.end() ? nullptr : &it->second;
    };

    Cursor *weights = find(kSecWeights);
    if (!weights)
        GIST_FATAL(path, " is missing checkpoint section 'weights'");
    parseTensorList(*weights, paramsOf(graph));
    endSection(*weights);

    if (Cursor *model_state = find(kSecState)) {
        parseTensorList(*model_state, stateOf(graph));
        endSection(*model_state);
    } else if (!stateOf(graph).empty()) {
        GIST_WARN(path, " has no model-state section; batchnorm running ",
                  "statistics keep their current values");
    }

    const std::uint32_t train_ids[] = { kSecVelocity, kSecRng,
                                        kSecDataset, kSecCounters,
                                        kSecLr };
    std::size_t present = 0;
    for (const std::uint32_t id : train_ids)
        present += find(id) != nullptr;
    if (present == 0)
        return false; // weights-only v2 file
    for (const std::uint32_t id : train_ids)
        if (!find(id))
            GIST_FATAL(path, " has incomplete training state: missing ",
                       "section '", sectionName(id), "'");
    if (!state)
        return true; // caller asked for weights only; state validated

    parseVelocity(*find(kSecVelocity), state->velocity, paramsOf(graph));
    endSection(*find(kSecVelocity));
    parseRng(*find(kSecRng), rngsOf(graph));
    endSection(*find(kSecRng));

    Cursor *dataset = find(kSecDataset);
    state->dataset_seed = dataset->pod<std::uint64_t>();
    state->epoch_offset = dataset->pod<std::int64_t>();
    endSection(*dataset);

    Cursor *counters = find(kSecCounters);
    state->epoch = counters->pod<std::int64_t>();
    state->step = counters->pod<std::int64_t>();
    endSection(*counters);

    Cursor *lr = find(kSecLr);
    state->lr = std::bit_cast<float>(lr->pod<std::uint32_t>());
    endSection(*lr);
    return true;
}

} // namespace

void
setCheckpointFault(CheckpointFault fault)
{
    g_fault = fault;
}

void
saveWeights(Graph &graph, const std::string &path)
{
    GIST_TRACE_SCOPE("checkpoint", "save");
    std::vector<SectionOut> sections;
    sections.push_back({ kSecWeights, tensorListPayload(paramsOf(graph)) });
    sections.push_back({ kSecState, tensorListPayload(stateOf(graph)) });
    publishFile(path, assembleFile(sections));
}

void
loadWeights(Graph &graph, const std::string &path)
{
    loadFile(graph, nullptr, path);
}

void
saveCheckpoint(Graph &graph, const TrainState &state,
               const std::string &path)
{
    GIST_TRACE_SCOPE("checkpoint", "save");
    std::vector<SectionOut> sections;
    sections.push_back({ kSecWeights, tensorListPayload(paramsOf(graph)) });
    sections.push_back({ kSecState, tensorListPayload(stateOf(graph)) });
    sections.push_back({ kSecRng, rngPayload(rngsOf(graph)) });
    sections.push_back({ kSecVelocity, velocityPayload(state.velocity) });
    Bytes dataset;
    putPod(dataset, state.dataset_seed);
    putPod(dataset, state.epoch_offset);
    sections.push_back({ kSecDataset, std::move(dataset) });
    Bytes counters;
    putPod(counters, state.epoch);
    putPod(counters, state.step);
    sections.push_back({ kSecCounters, std::move(counters) });
    Bytes lr;
    putPod(lr, std::bit_cast<std::uint32_t>(state.lr));
    sections.push_back({ kSecLr, std::move(lr) });
    publishFile(path, assembleFile(sections));
}

bool
loadCheckpoint(Graph &graph, TrainState &state, const std::string &path)
{
    return loadFile(graph, &state, path);
}

} // namespace gist
