#include "serve.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "bench_util.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace hw = dalut::hw;

std::vector<InputWord> make_samples(std::size_t count, unsigned width,
                                    std::uint64_t seed) {
  dalut::util::Rng rng(seed);
  std::vector<InputWord> samples(count);
  for (auto& x : samples) {
    x = static_cast<InputWord>(rng.next_below(std::uint64_t{1} << width));
  }
  return samples;
}

namespace {

/// Pushes `count` samples in batch-sized chunks, yielding while the ring is
/// full.
void push_all(dalut::util::SpscRing<InputWord>& ring, const InputWord* data,
              std::size_t count, std::size_t chunk, bool timed,
              RunStats& stats, std::atomic<std::uint64_t>* progress = nullptr) {
  for (std::size_t off = 0; off < count;) {
    const std::size_t want = std::min(chunk, count - off);
    std::size_t got = 0;
    if (timed) {
      // Only calls that moved samples count as push time; refused calls
      // are waiting, which short_pushes counts.
      const auto t0 = Clock::now();
      got = ring.try_push(data + off, want);
      if (got > 0) {
        stats.push_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
      }
    } else {
      got = ring.try_push(data + off, want);
    }
    if (got < want) {
      ++stats.short_pushes;
      std::this_thread::yield();
    }
    off += got;
    if (progress != nullptr) {
      progress->fetch_add(got, std::memory_order_release);
    }
  }
  stats.pushed += count;
}

/// Yields until `due`. The writer keeps its CPU rather than sleeping: a
/// sleeping thread on an idle virtual CPU can wake milliseconds late.
void wait_until(Clock::time_point due) {
  while (Clock::now() < due) std::this_thread::yield();
}

/// Binds the calling thread to one CPU; returns its previous CPU set.
cpu_set_t pin_to(unsigned cpu) {
  cpu_set_t before;
  CPU_ZERO(&before);
  pthread_getaffinity_np(pthread_self(), sizeof before, &before);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  return before;
}

/// The i-th CPU this process may use (the engine's threads get one each).
unsigned nth_cpu(unsigned i) {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof set, &set);
  for (unsigned cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set) && seen++ == i) return cpu;
  }
  return 0;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

RunStats serve_run(hw::StreamTarget& target, const hw::Technology& tech,
                   const hw::StreamConfig& config, const Shards& shards,
                   std::size_t passes, const SwapPlan* plan,
                   SwapSamples* samples, bool time_pushes) {
  hw::StreamEngine engine(target, tech, kProducers, config);
  std::atomic<bool> writer_done{plan == nullptr};
  std::atomic<std::uint64_t> pushed0{0};  // samples producer 0 has pushed
  std::vector<RunStats> per_producer(kProducers);
  RunStats stats;
  std::exception_ptr writer_error;

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      pin_to(nth_cpu(static_cast<unsigned>(p) + 1));
      auto& ring = engine.ring(p);
      const auto& shard = shards[p];
      RunStats& mine = per_producer[p];
      if (plan == nullptr) {
        for (std::size_t i = 0; i < passes; ++i) {
          push_all(ring, shard.data(), shard.size(), config.batch_size,
                   time_pushes, mine);
        }
      } else {
        while (!writer_done.load(std::memory_order_acquire)) {
          push_all(ring, shard.data(), shard.size(), config.batch_size,
                   time_pushes, mine, p == 0 ? &pushed0 : nullptr);
        }
        push_all(ring, shard.data(), shard.size(), config.batch_size,
                 time_pushes, mine);
      }
      ring.close();
    });
  }
  if (plan != nullptr) {
    threads.emplace_back([&] {
      pin_to(nth_cpu(kProducers + 1));
      try {
        // The engine counts epoch advances from the epoch current when run()
        // starts, so no swap may be published before then. Once producer 0
        // has pushed more than its ring holds, the consumer is draining.
        while (pushed0.load(std::memory_order_acquire) <=
               engine.ring(0).capacity()) {
          std::this_thread::yield();
        }
        const auto schedule = Clock::now();
        for (std::size_t i = 0; i < plan->swaps; ++i) {
          const auto due = schedule + plan->period * static_cast<int>(i + 1);
          wait_until(due);
          const auto woke = Clock::now();
          const std::uint64_t epoch = plan->publish(i);
          const auto published = Clock::now();
          while (target.applied_epoch() < epoch) std::this_thread::yield();
          const auto applied = Clock::now();
          ++stats.swaps;
          if (samples != nullptr) {
            samples->latency_us.push_back(us_between(due, applied));
            samples->call_us.push_back(us_between(woke, published));
            samples->retire_us.push_back(us_between(published, applied));
            samples->late_us.push_back(us_between(due, woke));
          }
        }
      } catch (...) {
        writer_error = std::current_exception();
      }
      writer_done.store(true, std::memory_order_release);
    });
  }
  const cpu_set_t caller_cpus = pin_to(nth_cpu(0));
  stats.report = engine.run(nullptr);
  for (auto& t : threads) t.join();
  pthread_setaffinity_np(pthread_self(), sizeof caller_cpus, &caller_cpus);
  stats.wall_s = seconds_between(start, Clock::now());
  if (writer_error) std::rethrow_exception(writer_error);
  for (const RunStats& p : per_producer) {
    stats.push_ns += p.push_ns;
    stats.pushed += p.pushed;
    stats.short_pushes += p.short_pushes;
  }
  return stats;
}

std::string check_engine(hw::StreamTarget& target, const hw::SimTarget& scalar,
                         const std::vector<InputWord>& sequence,
                         const dalut::core::MultiOutputFunction& reference,
                         const hw::Technology& tech,
                         const hw::StreamConfig& config) {
  hw::StreamEngine engine(target, tech, kProducers, config);
  const std::size_t batch = config.batch_size;
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      auto& ring = engine.ring(p);
      RunStats ignored;
      for (std::size_t chunk = p * batch; chunk < sequence.size();
           chunk += kProducers * batch) {
        push_all(ring, sequence.data() + chunk,
                 std::min(batch, sequence.size() - chunk), batch, false,
                 ignored);
      }
      ring.close();
    });
  }
  const auto served = engine.run(&reference);
  for (auto& t : threads) t.join();
  const auto expected = hw::simulate(scalar, sequence, &reference, tech);
  if (served.sim.mismatches != 0) {
    return std::to_string(served.sim.mismatches) +
           " engine reads differ from the reference";
  }
  if (!(served.sim == expected)) {
    return "engine report differs from scalar simulate()";
  }
  return "";
}

std::size_t readback_mismatches(
    hw::StreamTarget& target,
    const std::function<OutputWord(InputWord)>& expected) {
  const std::size_t domain = std::size_t{1} << target.num_inputs();
  std::vector<InputWord> x(domain);
  for (std::size_t i = 0; i < domain; ++i) x[i] = static_cast<InputWord>(i);
  std::vector<OutputWord> y(domain);
  std::uint64_t epoch = 0;
  const hw::TableImage& image = target.acquire(epoch);
  target.eval_batch(image, x.data(), y.data(), domain);
  target.mark_applied(epoch);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < domain; ++i) {
    if (y[i] != expected(x[i])) ++bad;
  }
  return bad;
}

KernelTimes time_kernels(hw::StreamTarget& target,
                         const std::vector<InputWord>& sequence,
                         const hw::Technology& tech, std::size_t batch) {
  std::vector<OutputWord> y(sequence.size());
  std::uint64_t epoch = 0;
  const hw::TableImage& image = target.acquire(epoch);
  hw::BatchAccumulator acc;
  const OutputWord bus = hw::output_bus_mask(target.num_outputs());
  std::vector<double> eval_ns;
  std::vector<double> acct_ns;
  // Three passes; the first warms caches and the median of all is kept.
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    for (std::size_t off = 0; off < sequence.size(); off += batch) {
      const std::size_t n = std::min(batch, sequence.size() - off);
      target.eval_batch(image, sequence.data() + off, y.data() + off, n);
    }
    const auto t1 = Clock::now();
    for (std::size_t off = 0; off < sequence.size(); off += batch) {
      const std::size_t n = std::min(batch, sequence.size() - off);
      hw::accumulate_batch(acc, sequence.data() + off, y.data() + off, n,
                           nullptr, tech, target.static_read_energy(), bus);
    }
    const auto t2 = Clock::now();
    const double reads = static_cast<double>(sequence.size());
    eval_ns.push_back(seconds_between(t0, t1) * 1e9 / reads);
    acct_ns.push_back(seconds_between(t1, t2) * 1e9 / reads);
  }
  target.mark_applied(epoch);
  return {median(eval_ns), median(acct_ns)};
}

}  // namespace perfbench
