// Timing decorators for the two narrow SPIs of the system: kv::KVStore /
// kv::Table and mq::Queuing / mq::QueueSet.
//
// Each decorator times calls into the wrapped layer from outside it and
// counts calls and bytes, so the traced benchmark run can say how much of
// a job's wall time the store and the queues account for without touching
// the library.  Like fault::FaultyStore they are transparent:
//  * every table handed out is wrapped once and cached by name, so
//    lookupTable returns the identical wrapper each time, and name(),
//    options() and the partitioner instance are forwarded untouched
//    (consistent partitioning survives the decoration);
//  * placement arguments are unwrapped before they reach the inner store;
//  * a durable inner store is wrapped by TimedDurableStore, which is a
//    kv::DurableStore itself, so the sync engine's durability probe sees
//    exactly what it sees on the undecorated store.  Neither decorator is a
//    fault::FaultyStore, matching an undecorated non-faulty store.
//
// Scan times are inclusive: enumerate() drives the caller's consumer, and
// the consumer's own per-pair work is part of the measured interval.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kvstore/log_store.h"
#include "kvstore/table.h"
#include "mq/queue.h"

namespace ripple::perf {

/// Calls, busy nanoseconds and payload bytes of one operation kind.
struct OpStat {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> nanos{0};
  std::atomic<std::uint64_t> bytes{0};

  void add(std::uint64_t n, std::uint64_t ns, std::uint64_t b) {
    calls.fetch_add(n, std::memory_order_relaxed);
    nanos.fetch_add(ns, std::memory_order_relaxed);
    bytes.fetch_add(b, std::memory_order_relaxed);
  }
};

/// Plain copy of an OpStat.
struct OpCount {
  std::uint64_t calls = 0;
  std::uint64_t nanos = 0;
  std::uint64_t bytes = 0;

  static OpCount of(const OpStat& s) {
    return {s.calls.load(std::memory_order_relaxed),
            s.nanos.load(std::memory_order_relaxed),
            s.bytes.load(std::memory_order_relaxed)};
  }
};

/// Times one call; the byte count may be set before it ends.
class OpTimer {
 public:
  explicit OpTimer(OpStat& stat, std::uint64_t calls = 1)
      : stat_(stat), calls_(calls), begun_(std::chrono::steady_clock::now()) {}
  ~OpTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - begun_)
                        .count();
    stat_.add(calls_, static_cast<std::uint64_t>(ns), bytes_);
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

  void setBytes(std::uint64_t bytes) { bytes_ = bytes; }

 private:
  OpStat& stat_;
  std::uint64_t calls_;
  std::uint64_t bytes_ = 0;
  std::chrono::steady_clock::time_point begun_;
};

struct StoreTiming {
  OpStat get;
  OpStat put;
  OpStat erase;
  OpStat drain;
  OpStat scan;
  OpStat clear;
  /// runInParts / runInPart / postToPart / processParts calls (mobile code
  /// placed with the data; counted, not timed: their time is the caller's).
  std::atomic<std::uint64_t> mobileCalls{0};
  std::atomic<std::uint64_t> tablesCreated{0};
};

struct QueueTiming {
  OpStat put;
  /// read / tryRead / tryReadFrom; `readHits` counts those that returned
  /// a message.
  OpStat read;
  OpStat steal;
  std::atomic<std::uint64_t> readHits{0};
};

class TimedTable : public kv::Table {
 public:
  TimedTable(kv::TablePtr inner, StoreTiming& timing)
      : inner_(std::move(inner)), timing_(timing) {}

  [[nodiscard]] const kv::TablePtr& inner() const { return inner_; }

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] const kv::TableOptions& options() const override {
    return inner_->options();
  }
  [[nodiscard]] std::uint32_t numParts() const override {
    return inner_->numParts();
  }
  void setReadOnly(bool readOnly) override { inner_->setReadOnly(readOnly); }
  [[nodiscard]] bool readOnly() const override { return inner_->readOnly(); }
  [[nodiscard]] std::uint32_t partOf(kv::KeyView key) const override {
    return inner_->partOf(key);
  }

  [[nodiscard]] std::optional<kv::Value> get(kv::KeyView key) override {
    OpTimer t(timing_.get);
    std::optional<kv::Value> v = inner_->get(key);
    t.setBytes(key.size() + (v ? v->size() : 0));
    return v;
  }

  void put(kv::KeyView key, kv::ValueView value) override {
    OpTimer t(timing_.put);
    t.setBytes(key.size() + value.size());
    inner_->put(key, value);
  }

  bool erase(kv::KeyView key) override {
    OpTimer t(timing_.erase);
    t.setBytes(key.size());
    return inner_->erase(key);
  }

  void putBatch(
      const std::vector<std::pair<kv::Key, kv::Value>>& entries) override {
    OpTimer t(timing_.put, entries.size());
    std::uint64_t bytes = 0;
    for (const auto& [k, v] : entries) {
      bytes += k.size() + v.size();
    }
    t.setBytes(bytes);
    inner_->putBatch(entries);
  }

  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] std::uint64_t partSize(std::uint32_t part) const override {
    return inner_->partSize(part);
  }

  Bytes enumerate(kv::PairConsumer& consumer) override {
    OpTimer t(timing_.scan);
    ByteCountingConsumer counting(consumer);
    Bytes out = inner_->enumerate(counting);
    t.setBytes(counting.bytes.load(std::memory_order_relaxed));
    return out;
  }

  Bytes enumeratePart(std::uint32_t part,
                          kv::PairConsumer& consumer) override {
    OpTimer t(timing_.scan);
    ByteCountingConsumer counting(consumer);
    Bytes out = inner_->enumeratePart(part, counting);
    t.setBytes(counting.bytes.load(std::memory_order_relaxed));
    return out;
  }

  Bytes processParts(kv::PartConsumer& consumer) override {
    timing_.mobileCalls.fetch_add(1, std::memory_order_relaxed);
    return inner_->processParts(consumer);
  }

  std::uint64_t clearPart(std::uint32_t part) override {
    OpTimer t(timing_.clear);
    return inner_->clearPart(part);
  }

  std::vector<std::pair<kv::Key, kv::Value>> drainPart(
      std::uint32_t part) override {
    OpTimer t(timing_.drain);
    auto pairs = inner_->drainPart(part);
    std::uint64_t bytes = 0;
    for (const auto& [k, v] : pairs) {
      bytes += k.size() + v.size();
    }
    t.setBytes(bytes);
    return pairs;
  }

 private:
  /// Forwards every call-back, counting the bytes enumerated.  One
  /// instance may be driven concurrently for different parts.
  class ByteCountingConsumer : public kv::PairConsumer {
   public:
    explicit ByteCountingConsumer(kv::PairConsumer& inner) : inner_(inner) {}
    void setupPart(std::uint32_t part) override { inner_.setupPart(part); }
    bool consume(std::uint32_t part, kv::KeyView key,
                 kv::ValueView value) override {
      bytes.fetch_add(key.size() + value.size(), std::memory_order_relaxed);
      return inner_.consume(part, key, value);
    }
    Bytes finalizePart(std::uint32_t part) override {
      return inner_.finalizePart(part);
    }
    Bytes combine(Bytes a, Bytes b) override {
      return inner_.combine(std::move(a), std::move(b));
    }
    std::atomic<std::uint64_t> bytes{0};

   private:
    kv::PairConsumer& inner_;
  };

  kv::TablePtr inner_;
  StoreTiming& timing_;
};

class TimedStore : public kv::KVStore {
 public:
  TimedStore(kv::KVStorePtr inner, StoreTiming& timing)
      : inner_(std::move(inner)), timing_(timing) {}

  kv::TablePtr createTable(const std::string& name,
                           kv::TableOptions options) override {
    kv::TablePtr table = inner_->createTable(name, std::move(options));
    timing_.tablesCreated.fetch_add(1, std::memory_order_relaxed);
    return wrap(std::move(table));
  }

  kv::TablePtr lookupTable(const std::string& name) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto it = wrappers_.find(name); it != wrappers_.end()) {
        return it->second;
      }
    }
    kv::TablePtr table = inner_->lookupTable(name);
    return table ? wrap(std::move(table)) : nullptr;
  }

  void dropTable(const std::string& name) override {
    inner_->dropTable(name);
    std::lock_guard<std::mutex> lock(mu_);
    wrappers_.erase(name);
  }

  void runInParts(const kv::Table& placement,
                  const std::function<void(std::uint32_t)>& fn) override {
    timing_.mobileCalls.fetch_add(1, std::memory_order_relaxed);
    inner_->runInParts(unwrap(placement), fn);
  }

  void runInPart(const kv::Table& placement, std::uint32_t part,
                 const std::function<void()>& fn) override {
    timing_.mobileCalls.fetch_add(1, std::memory_order_relaxed);
    inner_->runInPart(unwrap(placement), part, fn);
  }

  void postToPart(const kv::Table& placement, std::uint32_t part,
                  std::function<void()> fn) override {
    timing_.mobileCalls.fetch_add(1, std::memory_order_relaxed);
    inner_->postToPart(unwrap(placement), part, std::move(fn));
  }

  std::shared_ptr<void> adoptPartThread(const kv::Table& placement,
                                        std::uint32_t part) override {
    return inner_->adoptPartThread(unwrap(placement), part);
  }

  [[nodiscard]] kv::StoreMetrics& metrics() override {
    return inner_->metrics();
  }
  [[nodiscard]] std::uint32_t partsOf(
      const kv::Table& placement) const override {
    return inner_->partsOf(unwrap(placement));
  }
  [[nodiscard]] const char* backendName() const override {
    return inner_->backendName();
  }

 private:
  kv::TablePtr wrap(kv::TablePtr table) {
    std::lock_guard<std::mutex> lock(mu_);
    kv::TablePtr& slot = wrappers_[table->name()];
    const auto* cached = static_cast<const TimedTable*>(slot.get());
    if (cached == nullptr || cached->inner() != table) {
      slot = std::make_shared<TimedTable>(std::move(table), timing_);
    }
    return slot;
  }

  static const kv::Table& unwrap(const kv::Table& table) {
    if (const auto* timed = dynamic_cast<const TimedTable*>(&table)) {
      return *timed->inner();
    }
    return table;
  }

  kv::KVStorePtr inner_;
  StoreTiming& timing_;
  std::mutex mu_;
  std::unordered_map<std::string, kv::TablePtr> wrappers_;
};

/// TimedStore over a durable backend: also a kv::DurableStore, forwarding
/// epoch commits to the inner store.
class TimedDurableStore : public TimedStore, public kv::DurableStore {
 public:
  TimedDurableStore(kv::KVStorePtr inner, kv::DurableStore& durable,
                    StoreTiming& timing)
      : TimedStore(std::move(inner), timing), durable_(durable) {}

  void commitEpoch() override { durable_.commitEpoch(); }
  [[nodiscard]] std::uint64_t lastCommittedEpoch() const override {
    return durable_.lastCommittedEpoch();
  }
  [[nodiscard]] const std::string& storePath() const override {
    return durable_.storePath();
  }

 private:
  kv::DurableStore& durable_;
};

/// Wrap `inner`, preserving its durability capability.
inline kv::KVStorePtr timeStore(kv::KVStorePtr inner, StoreTiming& timing) {
  if (auto* durable = dynamic_cast<kv::DurableStore*>(inner.get())) {
    return std::make_shared<TimedDurableStore>(std::move(inner), *durable,
                                               timing);
  }
  return std::make_shared<TimedStore>(std::move(inner), timing);
}

class TimedWorkerContext : public mq::WorkerContext {
 public:
  TimedWorkerContext(mq::WorkerContext& inner, QueueTiming& timing)
      : inner_(inner), timing_(timing) {}

  [[nodiscard]] std::uint32_t queueIndex() const override {
    return inner_.queueIndex();
  }

  std::optional<Bytes> read(std::chrono::milliseconds timeout) override {
    return counted(timing_.read, [&] { return inner_.read(timeout); });
  }
  std::optional<Bytes> tryRead() override {
    return counted(timing_.read, [&] { return inner_.tryRead(); });
  }
  std::optional<Bytes> trySteal(std::uint32_t fromQueue) override {
    OpTimer t(timing_.steal);
    std::optional<Bytes> m = inner_.trySteal(fromQueue);
    t.setBytes(m ? m->size() : 0);
    return m;
  }
  std::optional<Bytes> tryReadFrom(std::uint32_t fromQueue) override {
    return counted(timing_.read,
                   [&] { return inner_.tryReadFrom(fromQueue); });
  }

 private:
  template <typename Fn>
  std::optional<Bytes> counted(OpStat& stat, Fn&& fn) {
    OpTimer t(stat);
    std::optional<Bytes> m = fn();
    if (m) {
      timing_.readHits.fetch_add(1, std::memory_order_relaxed);
      t.setBytes(m->size());
    }
    return m;
  }

  mq::WorkerContext& inner_;
  QueueTiming& timing_;
};

class TimedQueueSet : public mq::QueueSet {
 public:
  TimedQueueSet(mq::QueueSetPtr inner, QueueTiming& timing)
      : inner_(std::move(inner)), timing_(timing) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::uint32_t numQueues() const override {
    return inner_->numQueues();
  }

  bool put(std::uint32_t queue, Bytes message) override {
    OpTimer t(timing_.put);
    t.setBytes(message.size());
    return inner_->put(queue, std::move(message));
  }

  void runWorkers(const std::function<void(mq::WorkerContext&)>& body) override {
    inner_->runWorkers(timedBody(body));
  }
  void runWorkers(const std::function<void(mq::WorkerContext&)>& body,
                  std::uint32_t threads) override {
    inner_->runWorkers(timedBody(body), threads);
  }

  void close() override { inner_->close(); }
  [[nodiscard]] std::uint64_t backlog() const override {
    return inner_->backlog();
  }

 private:
  std::function<void(mq::WorkerContext&)> timedBody(
      const std::function<void(mq::WorkerContext&)>& body) {
    return [&body, this](mq::WorkerContext& ctx) {
      TimedWorkerContext timed(ctx, timing_);
      body(timed);
    };
  }

  mq::QueueSetPtr inner_;
  QueueTiming& timing_;
};

class TimedQueuing : public mq::Queuing {
 public:
  TimedQueuing(mq::QueuingPtr inner, QueueTiming& timing)
      : inner_(std::move(inner)), timing_(timing) {}

  mq::QueueSetPtr createQueueSet(const std::string& name,
                                 const kv::TablePtr& placement) override {
    return std::make_shared<TimedQueueSet>(
        inner_->createQueueSet(name, placement), timing_);
  }
  void deleteQueueSet(const std::string& name) override {
    inner_->deleteQueueSet(name);
  }

 private:
  mq::QueuingPtr inner_;
  QueueTiming& timing_;
};

}  // namespace ripple::perf
