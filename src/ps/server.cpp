#include "ps/server.h"

#include <algorithm>

#include "util/logging.h"

namespace buckwild::ps {

namespace {

PsConfig
validated(std::size_t dim, PsConfig config)
{
    if (dim == 0) fatal("model dimension must be >= 1");
    if (config.workers == 0) fatal("workers must be >= 1");
    if (config.shards == 0) fatal("shards must be >= 1");
    if (config.shards > dim)
        fatal("cannot partition " + std::to_string(dim) +
              " coordinates across " + std::to_string(config.shards) +
              " shards");
    validate_codec(config.codec);
    if (!(config.step_size > 0.0f)) fatal("step_size must be positive");
    if (config.batch == 0) fatal("batch must be >= 1");
    return config;
}

} // namespace

ParameterServer::ParameterServer(std::size_t dim, const PsConfig& config)
    : dim_(dim), config_(validated(dim, config)),
      transport_(config_.shards + config_.workers + 1, config_.faults)
{
    ShardConfig shard_cfg;
    shard_cfg.workers = config_.workers;
    shard_cfg.tau = config_.tau;
    shard_cfg.step_size = config_.step_size;
    shard_cfg.batch = config_.batch;
    shard_cfg.impl = config_.impl;
    for (std::size_t s = 0; s < config_.shards; ++s)
        shards_.push_back(std::make_unique<ServerShard>(
            s, shard_begin(s), shard_end(s), shard_cfg, transport_));
}

ParameterServer::~ParameterServer() { stop(); }

std::size_t
ParameterServer::shard_begin(std::size_t s) const
{
    return s * dim_ / config_.shards;
}

std::size_t
ParameterServer::shard_end(std::size_t s) const
{
    return (s + 1) * dim_ / config_.shards;
}

std::size_t
ParameterServer::worker_endpoint(std::size_t w) const
{
    if (w >= config_.workers) panic("worker endpoint out of range");
    return config_.shards + w;
}

void
ParameterServer::start()
{
    if (running_) panic("parameter server already started");
    if (stopped_) panic("parameter server cannot restart after stop");
    running_ = true;
    threads_.start(shards_.size(),
                   [this](std::size_t s) { shards_[s]->run(); });
}

void
ParameterServer::stop()
{
    if (!running_ || stopped_) return;
    stopped_ = true;
    transport_.close();
    threads_.join();
}

std::uint64_t
ParameterServer::version() const
{
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->version();
    return total;
}

std::vector<float>
ParameterServer::snapshot()
{
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (!running_ || stopped_)
        panic("snapshot needs a running parameter server");
    const std::size_t control = config_.shards + config_.workers;
    RpcClient rpc(transport_, control);
    Message pull;
    pull.kind = Message::Kind::kPull;
    const std::vector<Message> replies =
        call_shards(rpc, shards_.size(), pull);
    std::vector<float> model(dim_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Message& reply = replies[s];
        if (reply.weights.size() != shard_end(s) - shard_begin(s))
            panic("pull reply does not match the shard slice");
        std::copy(reply.weights.begin(), reply.weights.end(),
                  model.begin() + static_cast<std::ptrdiff_t>(
                                      shard_begin(s)));
    }
    control_retries_ += rpc.retries();
    return model;
}

core::SavedModel
ParameterServer::checkpoint()
{
    core::SavedModel model;
    model.signature = dmgc::Signature::dense_hogwild();
    model.signature.communication = dmgc::Communication::kAsynchronous;
    model.signature.comm_precision = config_.codec.kind == CodecKind::kDense
        ? dmgc::Precision::full()
        : dmgc::Precision::fixed(config_.codec.bits);
    model.loss = config_.loss;
    model.weights = snapshot();
    return model;
}

std::uint64_t
ParameterServer::publish(serve::ModelRegistry& registry,
                         serve::Precision precision)
{
    return registry.publish(checkpoint(), precision);
}

PsMetrics
ParameterServer::metrics() const
{
    PsMetrics metrics;
    if (stopped_)
        for (const auto& shard : shards_)
            metrics.shards.push_back(shard->metrics());
    metrics.messages_sent = transport_.sent();
    metrics.messages_dropped = transport_.dropped();
    metrics.wire_bytes_sent = transport_.sent_bytes();
    {
        std::lock_guard<std::mutex> lock(control_mutex_);
        metrics.rpc_retries = control_retries_;
    }
    return metrics;
}

} // namespace buckwild::ps
