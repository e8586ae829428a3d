#include "train/trainer.hpp"

#include <chrono>
#include <cmath>
#include <fstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "train/checkpoint.hpp"

#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace gist {

namespace {

std::vector<Tensor *>
allParams(Graph &graph)
{
    std::vector<Tensor *> out;
    for (auto &node : graph.nodes())
        if (node.layer)
            for (Tensor *p : node.layer->params())
                out.push_back(p);
    return out;
}

std::vector<Tensor *>
allParamGrads(Graph &graph)
{
    std::vector<Tensor *> out;
    for (auto &node : graph.nodes())
        if (node.layer)
            for (Tensor *g : node.layer->paramGrads())
                out.push_back(g);
    return out;
}

} // namespace

std::vector<std::int32_t>
argmaxRows(const Tensor &logits)
{
    const std::int64_t rows = logits.shape().dim(0);
    const std::int64_t cols = logits.numel() / rows;
    std::vector<std::int32_t> out(static_cast<size_t>(rows));
    for (std::int64_t r = 0; r < rows; ++r) {
        const float *row = logits.data() + r * cols;
        std::int64_t best = 0;
        for (std::int64_t c = 1; c < cols; ++c)
            if (row[c] > row[best])
                best = c;
        out[static_cast<size_t>(r)] = static_cast<std::int32_t>(best);
    }
    return out;
}

Trainer::Trainer(Executor &executor)
    : exec(executor)
{
    for (Tensor *p : allParams(exec.graph())) {
        GIST_ASSERT(!p->empty(),
                    "initialize parameters before constructing a Trainer");
        velocity.emplace_back(static_cast<size_t>(p->numel()), 0.0f);
    }
}

void
Trainer::clipGradients(float max_norm)
{
    double norm_sq = 0.0;
    auto grads = allParamGrads(exec.graph());
    for (Tensor *g : grads) {
        const float *gd = g->data();
        for (std::int64_t i = 0; i < g->numel(); ++i)
            norm_sq += double(gd[i]) * double(gd[i]);
    }
    const double norm = std::sqrt(norm_sq);
    if (norm <= max_norm || norm == 0.0)
        return;
    const float factor = static_cast<float>(max_norm / norm);
    for (Tensor *g : grads)
        scale(g->span(), factor);
}

void
Trainer::sgdStep(float lr, float momentum, float weight_decay)
{
    auto params = allParams(exec.graph());
    auto grads = allParamGrads(exec.graph());
    GIST_ASSERT(params.size() == grads.size() &&
                    params.size() == velocity.size(),
                "parameter bookkeeping mismatch");
    for (size_t i = 0; i < params.size(); ++i) {
        float *w = params[i]->data();
        const float *g = grads[i]->data();
        float *v = velocity[i].data();
        const auto n = static_cast<size_t>(params[i]->numel());
        for (size_t j = 0; j < n; ++j) {
            const float grad = g[j] + weight_decay * w[j];
            v[j] = momentum * v[j] - lr * grad;
            w[j] += v[j];
        }
    }
}

double
Trainer::evaluate(const SyntheticDataset &data, std::int64_t batch_size)
{
    GIST_TRACE_SCOPE("train", "evaluate");
    Graph &graph = exec.graph();
    const NodeId loss_node = static_cast<NodeId>(graph.numNodes() - 1);
    const NodeId logits_node = graph.node(loss_node).inputs[0];

    Tensor batch(graph.node(0).out_shape);
    GIST_ASSERT(batch.shape().n() == batch_size,
                "graph batch dim != eval batch size");
    std::vector<std::int32_t> labels;
    std::int64_t correct = 0;
    std::int64_t total = 0;
    for (std::int64_t start = 0; start + batch_size <= data.numEval();
         start += batch_size) {
        data.evalBatch(start, batch, labels);
        exec.forwardOnly(batch);
        const auto preds = argmaxRows(exec.value(logits_node));
        for (size_t i = 0; i < labels.size(); ++i)
            correct += (preds[i] == labels[i]);
        total += batch_size;
    }
    return total ? static_cast<double>(correct) /
                       static_cast<double>(total)
                 : 0.0;
}

void
Trainer::saveCheckpointNow(const TrainConfig &config,
                           const SyntheticDataset &data, std::int64_t epoch,
                           std::int64_t step, std::int64_t epoch_offset,
                           float lr)
{
    TrainState state;
    state.epoch = epoch;
    state.step = step;
    state.epoch_offset = epoch_offset;
    state.dataset_seed = data.spec().seed;
    state.lr = lr;
    state.velocity = velocity;
    saveCheckpoint(exec.graph(), state, config.checkpoint_path);
}

bool
Trainer::restoreCheckpoint(const TrainConfig &config,
                           const SyntheticDataset &data, float &lr,
                           int &first_epoch, std::int64_t &steps,
                           std::int64_t &resume_offset)
{
    TrainState state;
    if (!loadCheckpoint(exec.graph(), state, config.checkpoint_path)) {
        GIST_WARN("checkpoint ", config.checkpoint_path,
                  " is weights-only; resuming with fresh optimizer state");
        return true;
    }
    GIST_ASSERT(state.velocity.size() == velocity.size(),
                "parameter bookkeeping mismatch on resume");
    for (size_t i = 0; i < velocity.size(); ++i)
        GIST_ASSERT(state.velocity[i].size() == velocity[i].size(),
                    "velocity size mismatch on resume");
    velocity = std::move(state.velocity);
    if (state.dataset_seed != data.spec().seed)
        GIST_WARN("checkpoint ", config.checkpoint_path,
                  " was written against dataset seed ", state.dataset_seed,
                  ", resuming on seed ", data.spec().seed);
    lr = state.lr;
    first_epoch = static_cast<int>(state.epoch);
    steps = state.step;
    resume_offset = state.epoch_offset;
    GIST_INFORM("resumed from ", config.checkpoint_path, " at epoch ",
                state.epoch, ", step ", state.step);
    return true;
}

std::vector<EpochRecord>
Trainer::run(const SyntheticDataset &data, const TrainConfig &config)
{
    TrainLoop loop(*this, data, config);
    while (loop.step()) {
    }
    return loop.finish();
}

TrainLoop::TrainLoop(Trainer &trainer, const SyntheticDataset &data,
                     const TrainConfig &config)
    : trainer_(trainer),
      data_(data),
      cfg_(config),
      batch_(trainer.exec.graph().node(0).out_shape),
      lr_(config.learning_rate)
{
    if (cfg_.num_threads > 0)
        setNumThreads(cfg_.num_threads);
    GIST_ASSERT(batch_.shape().n() == cfg_.batch_size,
                "graph batch dim != train batch size");
    has_ckpt_ = !cfg_.checkpoint_path.empty();
    if (has_ckpt_ && cfg_.resume &&
        std::ifstream(cfg_.checkpoint_path).good()) {
        resumed_ = trainer_.restoreCheckpoint(cfg_, data_, lr_,
                                              first_epoch_, steps_,
                                              resume_offset_);
    }
    if (!cfg_.metrics_path.empty()) {
        if (cfg_.sink)
            cfg_.sink->open(cfg_.metrics_path, /*append=*/resumed_);
        else
            obs::metricsOpen(cfg_.metrics_path, /*append=*/resumed_);
    }
    epoch_ = first_epoch_;
    cur_epoch_ = first_epoch_;
    cur_offset_ = resume_offset_;
    if ((cfg_.max_steps > 0 && steps_ >= cfg_.max_steps) ||
        epoch_ >= cfg_.epochs) {
        done_ = true;
        return;
    }
    enterEpoch();
}

bool
TrainLoop::metricsOn() const
{
    return cfg_.sink ? cfg_.sink->enabled() : obs::metricsEnabled();
}

void
TrainLoop::writeMetrics(const obs::JsonLine &rec)
{
    if (cfg_.sink)
        cfg_.sink->write(rec);
    else
        obs::metricsWrite(rec);
}

void
TrainLoop::enterEpoch()
{
    // The restored LR already includes the decay for the epoch the
    // checkpoint was taken in; re-applying it would diverge from the
    // uninterrupted run.
    const bool resumed_epoch = resumed_ && epoch_ == first_epoch_;
    if (!resumed_epoch && epoch_ > 0 && cfg_.lr_decay != 1.0f &&
        cfg_.lr_decay_epochs > 0 && epoch_ % cfg_.lr_decay_epochs == 0)
        lr_ *= cfg_.lr_decay;
    loss_sum_ = 0.0;
    batches_ = 0;
    start_ = resumed_epoch ? resume_offset_ : 0;
}

void
TrainLoop::closeEpoch()
{
    if (batches_ == 0)
        return; // resumed exactly at this epoch's end
    EpochRecord rec;
    rec.epoch = epoch_;
    rec.mean_loss =
        static_cast<float>(loss_sum_ / static_cast<double>(batches_));
    rec.eval_accuracy = trainer_.evaluate(data_, cfg_.batch_size);
    records_.push_back(rec);
    if (metricsOn()) {
        obs::JsonLine line;
        line.field("type", "epoch");
        if (!cfg_.job_id.empty())
            line.field("job", cfg_.job_id);
        line.field("epoch", epoch_)
            .field("mean_loss", static_cast<double>(rec.mean_loss))
            .field("eval_accuracy", rec.eval_accuracy)
            .field("steps", static_cast<std::int64_t>(steps_));
        writeMetrics(line);
    }
}

void
TrainLoop::executeStep()
{
    data_.trainBatch(start_, batch_, labels_);
    const auto t0 = std::chrono::steady_clock::now();
    float step_loss;
    {
        GIST_TRACE_SCOPE_F("train", "step %lld",
                           static_cast<long long>(steps_ + 1));
        step_loss = trainer_.exec.runMinibatch(batch_, labels_);
        if (cfg_.clip_grad_norm > 0.0f)
            trainer_.clipGradients(cfg_.clip_grad_norm);
        trainer_.sgdStep(lr_, cfg_.momentum, cfg_.weight_decay);
    }
    const double step_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    loss_sum_ += step_loss;
    total_seconds_ += step_seconds;
    total_codec_ += trainer_.exec.stats().encode_seconds +
                    trainer_.exec.stats().decode_seconds;
    ++batches_;
    ++steps_;
    ++run_steps_;
    cur_epoch_ = epoch_;
    cur_offset_ = start_ + cfg_.batch_size;
    start_ += cfg_.batch_size;
    if (has_ckpt_ && cfg_.checkpoint_every_steps > 0 &&
        steps_ % cfg_.checkpoint_every_steps == 0)
        trainer_.saveCheckpointNow(cfg_, data_, cur_epoch_, steps_,
                                   cur_offset_, lr_);
    if (metricsOn()) {
        const ExecStats &stats = trainer_.exec.stats();
        obs::JsonLine rec;
        rec.field("type", "step");
        if (!cfg_.job_id.empty())
            rec.field("job", cfg_.job_id);
        rec.field("step", static_cast<std::int64_t>(steps_))
            .field("epoch", epoch_)
            .field("loss", static_cast<double>(step_loss))
            .field("examples_per_sec",
                   step_seconds > 0.0
                       ? static_cast<double>(cfg_.batch_size) /
                             step_seconds
                       : 0.0)
            .field("step_seconds", step_seconds)
            .field("encode_seconds", stats.encode_seconds)
            .field("decode_seconds", stats.decode_seconds)
            .field("encoded_bytes", stats.encoded_bytes)
            .field("dense_bytes_replaced", stats.dense_bytes_replaced)
            .field("peak_pool_bytes", stats.peak_pool_bytes)
            .field("codec_stall_seconds",
                   static_cast<double>(stats.codec_stall_ns) / 1e9)
            .field("codec_stalls",
                   static_cast<std::int64_t>(stats.codec_stalls))
            .field("codec_queue_wait_seconds",
                   static_cast<double>(stats.codec_queue_wait_ns) / 1e9)
            .field("codec_queue_peak_depth",
                   static_cast<std::int64_t>(
                       stats.codec_queue_peak_depth))
            .field("overlap_efficiency", stats.overlap_efficiency)
            .field("recompute_seconds", stats.recompute_seconds)
            .field("recompute_segments",
                   static_cast<std::int64_t>(stats.recompute_segments))
            .field("recompute_dropped_bytes",
                   stats.recompute_dropped_bytes)
            .field("tier_evictions",
                   static_cast<std::int64_t>(stats.tier_evictions))
            .field("tier_fetches",
                   static_cast<std::int64_t>(stats.tier_fetches))
            .field("tier_bytes_out", stats.tier_bytes_out)
            .field("tier_bytes_in", stats.tier_bytes_in)
            .field("tier_write_seconds",
                   static_cast<double>(stats.tier_write_ns) / 1e9)
            .field("tier_read_seconds",
                   static_cast<double>(stats.tier_read_ns) / 1e9)
            .field("lr", static_cast<double>(lr_));
        writeMetrics(rec);
    }
    if (cfg_.after_step)
        cfg_.after_step(steps_, trainer_.exec);
    if (cfg_.max_steps > 0 && steps_ >= cfg_.max_steps)
        done_ = true; // interrupted mid-epoch: no (partial) epoch record
}

bool
TrainLoop::step()
{
    if (done_)
        return false;
    while (start_ + cfg_.batch_size > data_.numTrain()) {
        closeEpoch();
        ++epoch_;
        if (epoch_ >= cfg_.epochs) {
            done_ = true;
            return false;
        }
        enterEpoch();
    }
    executeStep();
    return true;
}

void
TrainLoop::checkpointNow()
{
    GIST_ASSERT(has_ckpt_,
                "TrainLoop::checkpointNow() needs a checkpoint_path");
    trainer_.saveCheckpointNow(cfg_, data_, cur_epoch_, steps_,
                               cur_offset_, lr_);
}

std::vector<EpochRecord>
TrainLoop::finish()
{
    if (!finished_) {
        finished_ = true;
        if (has_ckpt_)
            trainer_.saveCheckpointNow(cfg_, data_, cur_epoch_, steps_,
                                       cur_offset_, lr_);
        if (run_steps_ > 0) {
            trainer_.seconds_per_minibatch =
                total_seconds_ / static_cast<double>(run_steps_);
            trainer_.codec_seconds =
                total_codec_ / static_cast<double>(run_steps_);
        }
    }
    return records_;
}

} // namespace gist
