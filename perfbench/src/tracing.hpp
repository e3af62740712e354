// Spans for the traced in-process pass, recorded only from benchmark code
// around public calls into each layer. Decorators (TracedDetector,
// TracedSink) wrap the layer objects a caller hands to the next layer up,
// so a parent layer's span gets child spans without touching src/.
#pragma once

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/duplicate_detector.hpp"
#include "server/ingest_server.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Span {
  const char* name = nullptr;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint32_t batch = 0;
};

/// Single-threaded span recorder. When disabled, begin()/end() cost one
/// branch, which is what the untraced pass runs.
class Tracer {
 public:
  bool enabled = false;
  std::uint32_t batch = 0;

  std::int32_t begin(const char* name) {
    if (!enabled) return -1;
    spans_.push_back({name, now_ns(), 0, current_, batch});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void end(std::int32_t id) {
    if (id < 0) return;
    spans_[id].end = now_ns();
    current_ = spans_[id].parent;
  }

  /// Self time (span minus the part its children cover) summed by name.
  std::map<std::string, double> self_ns() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] +=
          static_cast<double>(spans_[i].end - spans_[i].start - child[i]);
    }
    return out;
  }

  void write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "id,name,start_ns,end_ns,parent,batch\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%lld,%lld,%d,%u\n", i, s.name,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent, s.batch);
    }
    std::fclose(f);
  }

  void clear() {
    spans_.clear();
    current_ = -1;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

/// Records a span named `name` around every batch offer of `inner`.
class TracedDetector final : public ppc::core::DuplicateDetector {
 public:
  TracedDetector(std::unique_ptr<ppc::core::DuplicateDetector> inner,
                 Tracer& tracer, const char* name)
      : inner_(std::move(inner)), tracer_(tracer), name_(name) {}

  void offer_batch(std::span<const ppc::core::ClickId> ids,
                   std::span<bool> out, std::uint64_t time_us) override {
    ScopedSpan s(tracer_, name_);
    inner_->offer_batch(ids, out, time_us);
  }
  void offer_batch(std::span<const ppc::core::ClickId> ids,
                   std::span<const std::uint64_t> times,
                   std::span<bool> out) override {
    ScopedSpan s(tracer_, name_);
    inner_->offer_batch(ids, times, out);
  }
  ppc::core::WindowSpec window() const override { return inner_->window(); }
  std::size_t memory_bits() const override { return inner_->memory_bits(); }
  bool zero_false_negatives() const override {
    return inner_->zero_false_negatives();
  }
  std::string name() const override { return inner_->name(); }
  bool concurrent_offers() const noexcept override {
    return inner_->concurrent_offers();
  }
  void reset() override { inner_->reset(); }
  bool supports_snapshots() const noexcept override {
    return inner_->supports_snapshots();
  }
  void save(std::ostream& out) const override { inner_->save(out); }
  void restore(std::istream& in) override { inner_->restore(in); }
  void set_op_counter(ppc::core::OpCounter* ops) noexcept override {
    inner_->set_op_counter(ops);
  }

 protected:
  bool do_offer(ppc::core::ClickId id, std::uint64_t time_us) override {
    ScopedSpan s(tracer_, name_);
    return inner_->offer(id, time_us);
  }

 private:
  std::unique_ptr<ppc::core::DuplicateDetector> inner_;
  Tracer& tracer_;
  const char* name_;
};

/// Records a span named `name` around every offer into `inner`.
class TracedSink final : public ppc::server::ClickSink {
 public:
  TracedSink(ppc::server::ClickSink& inner, Tracer& tracer, const char* name)
      : inner_(inner), tracer_(tracer), name_(name) {}

  void offer(std::span<const std::uint32_t> ad_ids,
             std::span<const ppc::core::ClickId> ids,
             std::span<const std::uint64_t> times,
             std::span<bool> out) override {
    ScopedSpan s(tracer_, name_);
    inner_.offer(ad_ids, ids, times, out);
  }
  void offer_with_sources(std::span<const std::uint32_t> ad_ids,
                          std::span<const ppc::core::ClickId> ids,
                          std::span<const std::uint64_t> times,
                          std::span<const std::uint32_t> sources,
                          std::span<bool> out) override {
    ScopedSpan s(tracer_, name_);
    inner_.offer_with_sources(ad_ids, ids, times, sources, out);
  }
  std::string describe() const override { return inner_.describe(); }
  bool concurrent() const override { return inner_.concurrent(); }
  bool supports_snapshots() const noexcept override {
    return inner_.supports_snapshots();
  }
  void save_state(std::ostream& out) const override {
    inner_.save_state(out);
  }
  void restore_state(std::istream& in) override { inner_.restore_state(in); }
  ppc::server::wire::StatsReport stats_report() const override {
    return inner_.stats_report();
  }

 private:
  ppc::server::ClickSink& inner_;
  Tracer& tracer_;
  const char* name_;
};

}  // namespace perfbench
