/**
 * @file
 * Benchmark harness for the two repository workloads (see README.md).
 * Every subcommand drives the layers through their public entry
 * points and reads only the counters they already publish; the
 * orchestration, metric arithmetic and span self-time analysis live
 * in run.py, which starts each of these as its own child process.
 *
 *   perfbench kv-run      kv-a-sustained: set up, closed-loop run,
 *                         seeded crash (or stop, or death)
 *   perfbench kv-report   reopen the left-behind PM images (recovery),
 *                         verify every key, summarize the ledger
 *   perfbench serve       the epoch-serving server (speckv serve's
 *                         configuration, file-backed shards)
 *   perfbench serve-client  load / QPS ladder / read-back verification
 *
 * kv-run keeps everything it measures in a MAP_SHARED ledger file
 * (per-op latency samples, per-thread progress, periodic layer
 * snapshots), so a run that the process does not survive is still
 * accounted for: kv-report reads what the dead process completed.
 */

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include "common/hash.hh"
#include "core/spec_tx.hh"
#include "kv/kv_service.hh"
#include "kv/workload_spec.hh"
#include "net/loadgen.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "obs/http_client.hh"
#include "obs/metrics.hh"
#include "obs/telemetry_server.hh"
#include "obs/trace.hh"
#include "pmem/pmem_pool.hh"

namespace
{

using namespace specpmt;

std::uint64_t
nowNs()
{
    return obs::Tracer::now();
}

[[noreturn]] void
die(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------------
// Command line and JSON output
// ---------------------------------------------------------------------

class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto eq = arg.find('=');
            if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
                die("bad argument " + arg + " (want --name=value)");
            values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
    }

    std::string
    need(const std::string &name) const
    {
        const auto it = values_.find(name);
        if (it == values_.end())
            die("missing --" + name);
        return it->second;
    }

    std::uint64_t
    u64(const std::string &name, std::uint64_t fallback) const
    {
        const auto it = values_.find(name);
        return it == values_.end()
                   ? fallback
                   : std::strtoull(it->second.c_str(), nullptr, 10);
    }

    double
    f64(const std::string &name, double fallback) const
    {
        const auto it = values_.find(name);
        return it == values_.end() ? fallback
                                   : std::atof(it->second.c_str());
    }

  private:
    std::map<std::string, std::string> values_;
};

/** Flat JSON object writer (numbers, strings, nested raw objects). */
class JsonObj
{
  public:
    JsonObj &
    num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return raw(key, buf);
    }

    JsonObj &
    str(const std::string &key, const std::string &value)
    {
        std::string quoted = "\"";
        for (const char c : value) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            if (static_cast<unsigned char>(c) < 0x20)
                quoted += ' ';
            else
                quoted += c;
        }
        return raw(key, quoted + "\"");
    }

    JsonObj &
    raw(const std::string &key, const std::string &text)
    {
        body_ += body_.empty() ? "" : ", ";
        body_ += "\"" + key + "\": " + text;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::uint64_t
nextPow2(std::uint64_t x)
{
    std::uint64_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

// ---------------------------------------------------------------------
// The two workloads' fixed shape (README.md)
// ---------------------------------------------------------------------

constexpr unsigned kShards = 2;
/** kv-a client threads; also the service's thread slots on serve-b. */
constexpr unsigned kThreads = 2;
constexpr std::uint64_t kKeys = 1u << 14;
constexpr std::uint64_t kLiveBytes = kKeys * sizeof(kv::KvValue);
/** serve-b QPS ladder; the first step is the latency probe. */
constexpr double kLadderQps[] = {8000, 16000, 32000, 64000, 128000};
constexpr std::size_t kLadderSteps = std::size(kLadderQps);
/** Share of --seconds the probe step gets; the others split the rest. */
constexpr double kProbeShare = 0.8;
/** Share of serve-b requests that carry a trace id in a traced run. */
constexpr double kTraceSample = 0.01;

/** The configuration `speckv serve` builds for the same flags. */
kv::KvServiceConfig
serviceConfig(const std::string &pm_dir, bool group_commit)
{
    kv::KvServiceConfig config;
    config.shards = kShards;
    config.threads = kThreads;
    config.runtime = "spec";
    config.bucketsPerShard =
        nextPow2(std::max<std::uint64_t>(1024, 4 * kKeys / kShards));
    config.runtimeOptions.groupCommit = group_commit;
    config.pmDir = pm_dir;
    return config;
}

void
removeShardImages(const std::string &pm_dir)
{
    ::mkdir(pm_dir.c_str(), 0755);
    for (unsigned s = 0; s < kShards; ++s)
        ::unlink((pm_dir + "/shard-" + std::to_string(s) + ".pm")
                     .c_str());
}

/** Payload the keyspace is loaded with in kv-a-sustained. */
std::uint64_t
loadPayload(std::uint64_t seed, kv::KvKey key)
{
    return mix64(seed * 0x9E3779B97F4A7C15ull + key) | 1;
}

std::uint64_t
percentileOf(std::vector<std::uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    // Nearest rank.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

// ---------------------------------------------------------------------
// kv-a-sustained ledger (shared memory that outlives the run process)
// ---------------------------------------------------------------------

constexpr std::uint64_t kLedgerMagic = 0x3152474C48435042ull;
/** Sample word of an op the service refused or failed. */
constexpr std::uint32_t kFailedSample = 0xFFFFFFFFu;
/** Sample bit marking an update (the rest is latency in ns). */
constexpr std::uint32_t kPutBit = 0x80000000u;

/** Layer counters at one instant, summed over shards. */
struct LayerSnap
{
    std::uint64_t opsDone;
    std::uint64_t putsDone;
    std::uint64_t fences;
    std::uint64_t clwbs[3];
    std::uint64_t lineWrites;
    std::uint64_t simNs;
    std::uint64_t committedTxs;
    std::uint64_t logPeak;
    std::uint64_t reclaimCycles;
    std::uint64_t logBytesWritten;
    std::uint64_t reclaimBytesFreed;
    std::uint64_t readonlyRejects;
};

struct alignas(64) ThreadSlot
{
    std::atomic<std::uint64_t> completed;
    std::atomic<std::uint64_t> puts;
    std::atomic<std::uint64_t> lastNs;
    std::atomic<std::uint64_t> finished;
};

enum Phase : std::uint64_t
{
    kSetup = 0,
    kRunning = 1,
};

struct Ledger
{
    std::uint64_t magic;
    std::uint64_t seed;
    std::uint64_t opsPerThread;
    std::uint64_t setupNs;
    std::uint64_t loadNs;
    /** Peak RSS of the run process less the ledger's own pages. */
    std::uint64_t peakRssBytes;
    std::atomic<std::uint64_t> phase;
    ThreadSlot slot[kThreads];
    LayerSnap base;
    LayerSnap snap[2];
    std::atomic<std::uint64_t> snapIdx;
    std::atomic<std::uint64_t> readViolations;
    std::atomic<std::uint64_t> poolExhausted;
    /** Set by the first refused update: the run ends there. */
    std::atomic<std::uint64_t> stopRun;
    std::uint64_t recoverNs;
    std::uint64_t violations;
    /** Recovery itself threw (the crash image could not be opened). */
    std::uint64_t recoverFailed;
    char error[512];
    char recoverError[512];
};

std::size_t
ledgerHeaderBytes()
{
    return (sizeof(Ledger) + 4095) & ~std::size_t{4095};
}

class LedgerFile
{
  public:
    /** Create (@p ops > 0) or open an existing ledger at @p path. */
    LedgerFile(const std::string &path, std::uint64_t ops)
    {
        const bool create = ops != 0;
        fd_ = ::open(path.c_str(), create ? O_RDWR | O_CREAT | O_TRUNC
                                          : O_RDWR,
                     0644);
        if (fd_ < 0)
            die("cannot open ledger " + path);
        if (create) {
            bytes_ = ledgerHeaderBytes() +
                     kThreads * ops * sizeof(std::uint32_t);
            if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0)
                die("cannot size ledger " + path);
        } else {
            struct stat st{};
            ::fstat(fd_, &st);
            bytes_ = static_cast<std::size_t>(st.st_size);
            if (bytes_ < ledgerHeaderBytes())
                die("truncated ledger " + path);
        }
        map_ = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd_, 0);
        if (map_ == MAP_FAILED)
            die("cannot map ledger " + path);
        if (create)
            new (map_) Ledger{};
        if (ledger().magic != kLedgerMagic && !create)
            die("not a ledger: " + path);
    }

    ~LedgerFile()
    {
        ::munmap(map_, bytes_);
        ::close(fd_);
    }

    Ledger &ledger() { return *static_cast<Ledger *>(map_); }

    std::uint32_t *
    samples(unsigned tid)
    {
        return reinterpret_cast<std::uint32_t *>(
                   static_cast<char *>(map_) + ledgerHeaderBytes()) +
               tid * ledger().opsPerThread;
    }

    /** Bytes of the ledger in memory: the pages written so far (the
     * file is fresh and sparse, so those are all it has cached). */
    std::size_t
    residentBytes() const
    {
        const std::size_t page =
            static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
        std::vector<unsigned char> in_core((bytes_ + page - 1) / page);
        if (::mincore(map_, bytes_, in_core.data()) != 0)
            return 0;
        std::size_t pages = 0;
        for (const unsigned char c : in_core)
            pages += c & 1;
        return pages * page;
    }

  private:
    int fd_ = -1;
    void *map_ = nullptr;
    std::size_t bytes_ = 0;
};

/** Resident set of this process now. */
std::uint64_t
rssBytes()
{
    std::uint64_t size = 0;
    std::uint64_t resident = 0;
    std::ifstream("/proc/self/statm") >> size >> resident;
    return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

/** Fold the RSS now, less the ledger's own pages, into the peak. */
void
notePeakRss(LedgerFile &file)
{
    const std::uint64_t rss = rssBytes();
    const std::uint64_t own = file.residentBytes();
    std::uint64_t &peak = file.ledger().peakRssBytes;
    peak = std::max<std::uint64_t>(peak, rss > own ? rss - own : 0);
}

Ledger *g_ledger = nullptr;
std::string g_traceOut;

/**
 * An exception escaping a background thread (the reclaimer) ends the
 * process through std::terminate: record what it was before the
 * abort, so the report can name it.
 */
void
onTerminate()
{
    std::string what = "std::terminate without an active exception";
    bool exhausted = false;
    if (const auto ep = std::current_exception()) {
        try {
            std::rethrow_exception(ep);
        } catch (const pmem::PoolExhausted &err) {
            what = std::string("PoolExhausted: ") + err.what();
            exhausted = true;
        } catch (const std::exception &err) {
            what = err.what();
        } catch (...) {
            what = "non-standard exception";
        }
    }
    std::fprintf(stderr, "perfbench: terminate: %s\n", what.c_str());
    if (g_ledger != nullptr) {
        std::snprintf(g_ledger->error, sizeof(g_ledger->error), "%s",
                      what.c_str());
        if (exhausted)
            g_ledger->poolExhausted.store(1);
    }
    if (!g_traceOut.empty() && obs::Tracer::global().enabled())
        obs::Tracer::global().writeChromeJson(g_traceOut);
    std::abort();
}

core::SpecTx *
specTx(kv::KvService &service, unsigned shard)
{
    return dynamic_cast<core::SpecTx *>(&service.shardRuntime(shard));
}

/** Sum of every series of counter family @p base in @p snapshot. */
std::uint64_t
familySum(const obs::Snapshot &snapshot, const std::string &base)
{
    std::uint64_t total = 0;
    for (auto it = snapshot.counters.lower_bound(base);
         it != snapshot.counters.end() && it->first.rfind(base, 0) == 0;
         ++it) {
        const std::size_t n = base.size();
        if (it->first.size() == n || it->first[n] == '{')
            total += it->second;
    }
    return total;
}

/**
 * Layer counters now. Device counters are read through the registry
 * after PmemDevice::publishMetrics(), which takes the device lock, so
 * this is safe while clients and reclaimers run.
 */
LayerSnap
takeSnap(kv::KvService &service, Ledger &ledger)
{
    LayerSnap snap{};
    for (unsigned t = 0; t < kThreads; ++t) {
        snap.opsDone += ledger.slot[t].completed.load();
        snap.putsDone += ledger.slot[t].puts.load();
    }
    for (unsigned s = 0; s < service.numShards(); ++s) {
        service.shardDevice(s).publishMetrics();
        if (core::SpecTx *tx = specTx(service, s)) {
            snap.logPeak += tx->peakLogBytes();
            snap.reclaimCycles += tx->reclaimCycles();
        }
    }
    const obs::Snapshot reg = obs::Registry::global().snapshot();
    auto counter = [&reg](const std::string &name) {
        const auto it = reg.counters.find(name);
        return it == reg.counters.end() ? 0 : it->second;
    };
    snap.fences = counter("specpmt_pmem_fences_total");
    snap.clwbs[0] = counter("specpmt_pmem_clwbs_total{class=\"data\"}");
    snap.clwbs[1] = counter("specpmt_pmem_clwbs_total{class=\"log\"}");
    snap.clwbs[2] = counter("specpmt_pmem_clwbs_total{class=\"meta\"}");
    snap.lineWrites = counter("specpmt_pmem_pm_line_writes_total");
    snap.simNs = familySum(reg, "specpmt_sim_ns_total");
    snap.committedTxs = counter("specpmt_spec_tx_commits_total");
    snap.logBytesWritten = counter("specpmt_spec_tx_log_bytes_written_total");
    snap.reclaimBytesFreed = counter("specpmt_reclaim_bytes_freed_total");
    snap.readonlyRejects = counter("specpmt_kv_readonly_rejects_total");
    return snap;
}

void
publishSnap(Ledger &ledger, const LayerSnap &snap)
{
    const std::uint64_t next = 1 - ledger.snapIdx.load();
    ledger.snap[next] = snap;
    ledger.snapIdx.store(next);
}

kv::WorkloadSpec
kvaSpec()
{
    kv::WorkloadSpec spec;
    spec.keys = kKeys;
    spec.mix = kv::Mix::A;
    spec.dist = kv::KeyDist::Zipfian;
    spec.zipfTheta = 0.99;
    return spec;
}

/**
 * Every payload a key may hold after a crash, reconstructed from the
 * seeded op streams and the per-thread progress in the ledger: per
 * writer thread its newest acked update, plus the update it had in
 * flight; the loaded payload only while no thread acked an update.
 * Writers are not ordered against each other (the service does not
 * expose its commit order), so either writer's newest ack passes.
 */
std::vector<std::vector<std::uint64_t>>
acceptablePayloads(LedgerFile &file)
{
    Ledger &ledger = file.ledger();
    constexpr std::uint64_t kNone = 0;
    std::vector<std::vector<std::uint64_t>> accept(kKeys + 1);
    std::vector<bool> acked_any(kKeys + 1, false);
    const kv::WorkloadSpec spec = kvaSpec();
    const kv::ZipfianGenerator zipf(spec.keys, spec.zipfTheta);
    for (unsigned t = 0; t < kThreads; ++t) {
        const std::uint64_t done = ledger.slot[t].completed.load();
        const bool finished = ledger.slot[t].finished.load() != 0;
        const std::uint32_t *samples = file.samples(t);
        std::vector<std::uint64_t> newest(kKeys + 1, kNone);
        kv::OpGenerator gen(spec, &zipf,
                            kv::OpGenerator::workerSeed(ledger.seed, t));
        const std::uint64_t horizon =
            std::min(ledger.opsPerThread, done + (finished ? 0 : 1));
        for (std::uint64_t i = 0; i < horizon; ++i) {
            const kv::WorkloadOp op = gen.next();
            if (op.kind != kv::WorkloadOp::Kind::Put)
                continue;
            const std::uint64_t payload = op.value.words[1];
            if (i >= done) {
                accept[op.key].push_back(payload); // in flight
            } else if (samples[i] != kFailedSample) {
                newest[op.key] = payload;
                acked_any[op.key] = true;
            }
        }
        for (std::uint64_t k = 1; k <= kKeys; ++k) {
            if (newest[k] != kNone)
                accept[k].push_back(newest[k]);
        }
    }
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
        if (!acked_any[k])
            accept[k].push_back(loadPayload(ledger.seed, k));
    }
    return accept;
}

/** Verify every key against acceptablePayloads (and @p exact when
 * given: the pre-crash value each key must still hold). */
std::uint64_t
verifyKeys(kv::KvService &service, LedgerFile &file,
           const std::vector<kv::KvValue> *exact)
{
    const auto accept = acceptablePayloads(file);
    std::uint64_t violations = 0;
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
        const auto value = service.get(0, k);
        bool ok = value.has_value() && value->checkTag(k);
        if (ok) {
            const auto &allowed = accept[k];
            ok = std::find(allowed.begin(), allowed.end(),
                           value->words[1]) != allowed.end();
        }
        if (ok && exact != nullptr)
            ok = *value == (*exact)[k];
        if (!ok) {
            if (violations < 5)
                std::fprintf(stderr,
                             "perfbench: key %llu fails verification\n",
                             static_cast<unsigned long long>(k));
            ++violations;
        }
    }
    return violations;
}

void
loadKeyspace(kv::KvService &service, std::uint64_t seed)
{
    SPECPMT_TRACE_SPAN("bench_load", "bench");
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
        if (!service.put(0, k, kv::KvValue::tagged(k,
                                                   loadPayload(seed, k))))
            die("load: table full");
    }
}

/** One client thread of the closed loop. */
void
kvClient(kv::KvService &service, LedgerFile &file, unsigned tid,
         const kv::ZipfianGenerator &zipf, std::uint64_t run_start,
         std::uint64_t deadline, bool trace)
{
    Ledger &ledger = file.ledger();
    ThreadSlot &slot = ledger.slot[tid];
    std::uint32_t *samples = file.samples(tid);
    kv::OpGenerator gen(kvaSpec(), &zipf,
                        kv::OpGenerator::workerSeed(ledger.seed, tid));
    std::vector<kv::BatchOp> batch(1);
    std::vector<kv::BatchOpResult> results;
    auto &tracer = obs::Tracer::global();
    for (std::uint64_t i = 0; i < ledger.opsPerThread; ++i) {
        if (nowNs() >= deadline ||
            ledger.stopRun.load(std::memory_order_relaxed) != 0)
            break; // the rest counts as not completed
        const kv::WorkloadOp op = gen.next();
        std::uint32_t sample;
        const std::uint64_t t0 = nowNs();
        if (op.kind == kv::WorkloadOp::Kind::Get) {
            const auto value = service.get(tid, op.key);
            const std::uint64_t t1 = nowNs();
            if (trace)
                tracer.record("bench_get", "bench", t0, t1);
            if (!value || !value->checkTag(op.key))
                ledger.readViolations.fetch_add(1);
            sample = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(t1 - t0, kPutBit - 1));
        } else {
            batch[0] = {kv::BatchOp::Kind::Put, op.key, op.value};
            const kv::BatchStatus status = service.executeShardBatch(
                tid, service.shardOf(op.key), batch, results,
                kv::Durability::Strict);
            const std::uint64_t t1 = nowNs();
            if (trace)
                tracer.record("bench_put", "bench", t0, t1);
            if (status == kv::BatchStatus::ReadOnly)
                ledger.poolExhausted.store(1);
            if (status == kv::BatchStatus::Ok && results[0].ok) {
                sample = kPutBit |
                         static_cast<std::uint32_t>(std::min<std::uint64_t>(
                             t1 - t0, kPutBit - 1));
                slot.puts.fetch_add(1, std::memory_order_relaxed);
            } else {
                sample = kFailedSample;
                ledger.stopRun.store(1);
            }
        }
        samples[i] = sample;
        slot.lastNs.store(nowNs() - run_start,
                          std::memory_order_relaxed);
        slot.completed.store(i + 1, std::memory_order_release);
    }
    slot.finished.store(1);
}

int
kvRunMain(const Args &args)
{
    const std::string work = args.need("work");
    const bool trace = args.u64("trace", 0) != 0;
    const std::uint64_t ops = args.u64("ops", 0);
    if (ops == 0)
        die("kv-run: bad --ops");
    const std::string pm_dir = work + "/pm";
    LedgerFile file(work + "/ledger", ops);
    Ledger &ledger = file.ledger();
    ledger.magic = kLedgerMagic;
    ledger.seed = args.u64("seed", 1);
    ledger.opsPerThread = ops;
    g_ledger = &ledger;
    if (trace) {
        g_traceOut = work + "/trace-run.json";
        obs::Tracer::global().enable();
    }
    std::set_terminate(onTerminate);

    removeShardImages(pm_dir);
    const std::uint64_t t0 = nowNs();
    auto service = std::make_unique<kv::KvService>(
        serviceConfig(pm_dir, false));
    const std::uint64_t t1 = nowNs();
    loadKeyspace(*service, ledger.seed);
    ledger.setupNs = nowNs() - t0;
    ledger.loadNs = nowNs() - t1;
    notePeakRss(file);

    const kv::WorkloadSpec spec = kvaSpec();
    const kv::ZipfianGenerator zipf(spec.keys, spec.zipfTheta);
    const std::uint64_t run_start = nowNs();
    const std::uint64_t deadline =
        run_start +
        static_cast<std::uint64_t>(args.f64("deadline-s", 60) * 1e9);
    ledger.base = takeSnap(*service, ledger);
    publishSnap(ledger, ledger.base);
    ledger.phase.store(kRunning);

    std::vector<std::thread> clients;
    for (unsigned t = 0; t < kThreads; ++t)
        clients.emplace_back(kvClient, std::ref(*service), std::ref(file),
                             t, std::cref(zipf), run_start, deadline,
                             trace);
    auto all_finished = [&] {
        for (unsigned t = 0; t < kThreads; ++t) {
            if (ledger.slot[t].finished.load() == 0)
                return false;
        }
        return true;
    };
    while (!all_finished()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        publishSnap(ledger, takeSnap(*service, ledger));
        notePeakRss(file);
    }
    for (auto &client : clients)
        client.join();
    publishSnap(ledger, takeSnap(*service, ledger));
    notePeakRss(file);

    if (ledger.stopRun.load() == 0) {
        // End of a complete run: remember what every key holds, then
        // a seeded crash with random eviction of unfenced lines. The
        // collapsed images are mirrored into the backing files.
        std::vector<kv::KvValue> expected(kKeys + 1);
        for (std::uint64_t k = 1; k <= kKeys; ++k) {
            if (const auto value = service->get(0, k))
                expected[k] = *value;
        }
        std::ofstream(work + "/expected.bin", std::ios::binary)
            .write(reinterpret_cast<const char *>(expected.data()),
                   static_cast<std::streamsize>(expected.size() *
                                                sizeof(kv::KvValue)));
        SPECPMT_TRACE_SPAN("bench_crash", "bench");
        service->crash(pmem::CrashPolicy::random(ledger.seed));
    } else if (ledger.error[0] == '\0') {
        // A refused update means a shard lost its write path for good
        // (read-only mode is sticky) and its reclaimer may end the
        // process any moment: the run stops here, and the images as
        // they stand are the crash image.
        std::snprintf(ledger.error, sizeof(ledger.error),
                      "update refused: shard read-only%s",
                      ledger.poolExhausted.load() != 0
                          ? " (PoolExhausted)"
                          : "");
    }
    if (trace)
        obs::Tracer::global().writeChromeJson(g_traceOut);
    // The service is not shut down: the process ends as a crash does.
    std::fflush(nullptr);
    ::_exit(ledger.stopRun.load() == 0 ? 0 : 3);
}

/**
 * Reopen the crash image in this fresh process (reopening runs every
 * shard's recover()), time it and verify every key.
 */
void
recoverAndVerify(const std::string &work, LedgerFile &file)
{
    Ledger &ledger = file.ledger();
    std::vector<kv::KvValue> expected;
    if (std::ifstream in{work + "/expected.bin", std::ios::binary}) {
        expected.resize(kKeys + 1);
        in.read(reinterpret_cast<char *>(expected.data()),
                static_cast<std::streamsize>(expected.size() *
                                             sizeof(kv::KvValue)));
    }
    // Verification only reads, so no background reclaimer runs here:
    // it would compete for whatever pool space the run left behind.
    kv::KvServiceConfig config = serviceConfig(work + "/pm", false);
    config.runtimeOptions.backgroundWorkers = false;
    const std::uint64_t t0 = nowNs();
    try {
        kv::KvService service(config);
        ledger.recoverNs = nowNs() - t0;
        ledger.violations = verifyKeys(
            service, file, expected.empty() ? nullptr : &expected);
        service.shutdown();
    } catch (const std::exception &err) {
        // An image that does not reopen yields nothing to verify; the
        // failure is reported, not a verdict.
        ledger.recoverNs = nowNs() - t0;
        ledger.recoverFailed = 1;
        std::snprintf(ledger.recoverError, sizeof(ledger.recoverError),
                      "%s%s",
                      dynamic_cast<const pmem::PoolExhausted *>(&err) !=
                              nullptr
                          ? "PoolExhausted: "
                          : "",
                      err.what());
        std::fprintf(stderr, "perfbench: recovery failed: %s\n",
                     ledger.recoverError);
    }
    obs::Tracer::global().record("bench_recover", "bench", t0,
                                 t0 + ledger.recoverNs);
}

/** Summary of a kv-run ledger as one JSON line. */
int
kvReportMain(const Args &args)
{
    const std::string work = args.need("work");
    const bool trace = args.u64("trace", 0) != 0;
    LedgerFile file(work + "/ledger", 0);
    Ledger &ledger = file.ledger();
    const std::uint64_t phase = ledger.phase.load();
    if (phase == kSetup)
        die("kv-report: the run died before its timed phase");

    if (trace)
        obs::Tracer::global().enable();
    recoverAndVerify(work, file);
    if (trace)
        obs::Tracer::global().writeChromeJson(work +
                                              "/trace-recover.json");

    std::vector<std::uint64_t> reads;
    std::vector<std::uint64_t> updates;
    std::uint64_t completed = 0;
    std::uint64_t failed_ops = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
        const std::uint64_t done = ledger.slot[t].completed.load();
        completed += done;
        const std::uint32_t *samples = file.samples(t);
        for (std::uint64_t i = 0; i < done; ++i) {
            const std::uint32_t s = samples[i];
            if (s == kFailedSample)
                ++failed_ops;
            else if (s & kPutBit)
                updates.push_back(s & ~kPutBit);
            else
                reads.push_back(s);
        }
    }
    std::sort(reads.begin(), reads.end());
    std::sort(updates.begin(), updates.end());
    double sum = 0;
    for (const std::uint64_t v : reads)
        sum += static_cast<double>(v);
    for (const std::uint64_t v : updates)
        sum += static_cast<double>(v);
    const std::uint64_t timed = reads.size() + updates.size();

    const LayerSnap &a = ledger.base;
    const LayerSnap &b = ledger.snap[ledger.snapIdx.load()];
    // Emulated PM time per shard, the shards' clocks averaged.
    const double sim_ns = static_cast<double>(b.simNs - a.simNs) / kShards;
    std::uint64_t run_ns = 1;
    for (unsigned t = 0; t < kThreads; ++t)
        run_ns = std::max<std::uint64_t>(run_ns, ledger.slot[t].lastNs.load());

    JsonObj out;
    out.num("planned", static_cast<double>(kThreads * ledger.opsPerThread))
        .num("completed", static_cast<double>(completed))
        .num("failed_ops", static_cast<double>(failed_ops))
        .num("read_violations",
             static_cast<double>(ledger.readViolations.load()))
        .num("verify_violations", static_cast<double>(ledger.violations))
        .num("pool_exhausted",
             static_cast<double>(ledger.poolExhausted.load()))
        .str("error", ledger.error)
        .num("recover_failed", static_cast<double>(ledger.recoverFailed))
        .str("recover_error", ledger.recoverError)
        .num("setup_ns", static_cast<double>(ledger.setupNs))
        .num("load_ns", static_cast<double>(ledger.loadNs))
        .num("run_ns", static_cast<double>(run_ns))
        .num("read_p50_ns", static_cast<double>(percentileOf(reads, 50)))
        .num("read_p99_ns", static_cast<double>(percentileOf(reads, 99)))
        .num("update_p50_ns",
             static_cast<double>(percentileOf(updates, 50)))
        .num("update_p99_ns",
             static_cast<double>(percentileOf(updates, 99)))
        .num("lat_mean_ns", timed ? sum / static_cast<double>(timed) : 0)
        .num("recover_ns", static_cast<double>(ledger.recoverNs))
        .num("peak_rss_bytes", static_cast<double>(ledger.peakRssBytes))
        .num("live_bytes", static_cast<double>(kLiveBytes))
        .num("snap_ops", static_cast<double>(b.opsDone - a.opsDone))
        .num("snap_puts", static_cast<double>(b.putsDone - a.putsDone))
        .num("fences", static_cast<double>(b.fences - a.fences))
        .num("clwbs_data", static_cast<double>(b.clwbs[0] - a.clwbs[0]))
        .num("clwbs_log", static_cast<double>(b.clwbs[1] - a.clwbs[1]))
        .num("clwbs_meta", static_cast<double>(b.clwbs[2] - a.clwbs[2]))
        .num("line_writes", static_cast<double>(b.lineWrites - a.lineWrites))
        .num("sim_ns", sim_ns)
        .num("commits", static_cast<double>(b.committedTxs - a.committedTxs))
        .num("log_peak_bytes", static_cast<double>(b.logPeak))
        .num("reclaim_cycles",
             static_cast<double>(b.reclaimCycles - a.reclaimCycles))
        .num("log_bytes_written",
             static_cast<double>(b.logBytesWritten - a.logBytesWritten))
        .num("reclaim_bytes_freed",
             static_cast<double>(b.reclaimBytesFreed - a.reclaimBytesFreed))
        .num("readonly_rejects",
             static_cast<double>(b.readonlyRejects - a.readonlyRejects));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// serve-b-epoch: server
// ---------------------------------------------------------------------

std::atomic<bool> g_stop{false};

void
onStopSignal(int)
{
    g_stop.store(true);
}

void
writeFileAtomically(const std::string &path, const std::string &text)
{
    const std::string tmp = path + ".tmp";
    std::ofstream(tmp) << text;
    std::rename(tmp.c_str(), path.c_str());
}

/**
 * `speckv serve --runtime=spec --shards=N --group-commit` with the
 * default epoch triggers, file-backed shards and an admin endpoint.
 * The only additions are benchmark plumbing: the tracer stays off
 * unless --trace=1, and the shard devices flush their counters into
 * the registry every 20 ms so /metrics is current mid-run.
 */
int
serveMain(const Args &args)
{
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGPIPE, SIG_IGN);
    const std::string pm_dir = args.need("pm-dir");
    ::mkdir(pm_dir.c_str(), 0755);
    if (args.u64("trace", 0) != 0)
        obs::Tracer::global().enable();

    const std::uint64_t t0 = nowNs();
    kv::KvService service(serviceConfig(pm_dir, true));
    const std::uint64_t open_ns = nowNs() - t0;

    net::ServerConfig server_config;
    server_config.groupCommit = true;
    net::NetServer server(service, server_config);
    server.start();
    obs::TelemetryConfig telemetry_config;
    telemetry_config.health = [&server] { return server.healthReport(); };
    obs::TelemetryServer telemetry(std::move(telemetry_config));
    if (!telemetry.start())
        die("serve: cannot start the admin endpoint");
    writeFileAtomically(args.need("ready-file"),
                        std::to_string(server.port()) + " " +
                            std::to_string(telemetry.port()) + " " +
                            std::to_string(open_ns) + "\n");
    // The registry has one log high-water gauge for all shards; this
    // publishes each shard's SpecTx::peakLogBytes().
    std::vector<obs::Gauge *> log_peak;
    for (unsigned s = 0; s < kShards; ++s)
        log_peak.push_back(&obs::Registry::global().gauge(
            "perfbench_shard_log_peak_bytes", "SpecTx peak log bytes",
            {{"shard", std::to_string(s)}}));
    while (!g_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        for (unsigned s = 0; s < kShards; ++s) {
            service.shardDevice(s).publishMetrics();
            if (core::SpecTx *tx = specTx(service, s))
                log_peak[s]->set(
                    static_cast<std::int64_t>(tx->peakLogBytes()));
        }
    }
    telemetry.stop();
    server.stop();
    service.shutdown();
    return 0;
}

// ---------------------------------------------------------------------
// serve-b-epoch: client
// ---------------------------------------------------------------------

struct Scrape
{
    obs::FlatSamples samples;

    double
    get(const std::string &name) const
    {
        const auto it = samples.find(name);
        return it == samples.end() ? 0.0 : it->second;
    }

    /** Sum of every series of @p base (all label sets). */
    double
    sum(const std::string &base) const
    {
        double total = 0;
        for (auto it = samples.lower_bound(base);
             it != samples.end() && it->first.rfind(base, 0) == 0; ++it) {
            const char next = it->first.size() > base.size()
                                  ? it->first[base.size()]
                                  : '\0';
            if (next == '\0' || next == '{')
                total += it->second;
        }
        return total;
    }

    /** Per-bucket counts (upper bound -> count) of histogram @p base. */
    std::map<double, double>
    buckets(const std::string &base) const
    {
        std::map<double, double> cumulative;
        const std::string prefix = base + "_bucket{le=\"";
        for (auto it = samples.lower_bound(prefix);
             it != samples.end() && it->first.rfind(prefix, 0) == 0;
             ++it) {
            const std::string le = it->first.substr(prefix.size());
            if (le.rfind("+Inf", 0) == 0)
                continue;
            cumulative[std::atof(le.c_str())] = it->second;
        }
        std::map<double, double> counts;
        double prev = 0;
        for (const auto &[le, cum] : cumulative) {
            counts[le] = cum - prev;
            prev = cum;
        }
        return counts;
    }
};

Scrape
scrape(std::uint16_t admin_port)
{
    obs::HttpResponse resp;
    std::string err;
    if (!obs::httpGet("127.0.0.1", admin_port, "/metrics", resp, err,
                      10000) ||
        resp.status != 200)
        die("scrape /metrics: " + err);
    Scrape out;
    if (!obs::parsePrometheus(resp.body, out.samples, err))
        die("parse /metrics: " + err);
    return out;
}

/** Stage histogram delta between two scrapes: mean and p50 (ns, the
 * p50 interpolated inside its bucket). */
void
stageDelta(JsonObj &out, const std::string &stage, const Scrape &a,
           const Scrape &b)
{
    const std::string base = "specpmt_net_stage_" + stage;
    const double count = b.get(base + "_count") - a.get(base + "_count");
    const double sum = b.get(base + "_sum") - a.get(base + "_sum");
    auto before = a.buckets(base);
    double p50 = 0;
    double seen = 0;
    for (const auto &[le, n] : b.buckets(base)) {
        const double delta = n - before[le];
        if (count > 0 && delta > 0 && seen + delta >= 0.5 * count) {
            const double lo = static_cast<double>(
                LatencyHistogram::bucketLowerBound(
                    LatencyHistogram::bucketIndex(
                        static_cast<std::uint64_t>(le))));
            p50 = lo + (le - lo) * (0.5 * count - seen) / delta;
            break;
        }
        seen += delta;
    }
    out.num(stage + "_count", count)
        .num(stage + "_mean_ns", count > 0 ? sum / count : 0)
        .num(stage + "_p50_ns", p50);
}

void
counterDeltas(JsonObj &out, const Scrape &a, const Scrape &b)
{
    static const std::pair<const char *, const char *> kCounters[] = {
        {"fences", "specpmt_pmem_fences_total"},
        {"clwbs_data", "specpmt_pmem_clwbs_total{class=\"data\"}"},
        {"clwbs_log", "specpmt_pmem_clwbs_total{class=\"log\"}"},
        {"clwbs_meta", "specpmt_pmem_clwbs_total{class=\"meta\"}"},
        {"line_writes", "specpmt_pmem_pm_line_writes_total"},
        {"log_bytes_written", "specpmt_spec_tx_log_bytes_written_total"},
        {"reclaim_cycles", "specpmt_reclaim_cycles_total"},
        {"reclaim_bytes_freed", "specpmt_reclaim_bytes_freed_total"},
        {"commits", "specpmt_spec_tx_commits_total"},
        {"epoch_seals", "specpmt_epoch_seals_total"},
        {"epoch_txs_sealed", "specpmt_epoch_txs_sealed_total"},
        {"batch_ops", "specpmt_net_batch_ops_total"},
        {"batch_commits", "specpmt_net_batch_commits_total"},
        {"readonly_rejects", "specpmt_kv_readonly_rejects_total"},
    };
    for (const auto &[key, name] : kCounters)
        out.num(key, b.get(name) - a.get(name));
    // Emulated PM time per shard, the shards' clocks averaged.
    out.num("sim_ns", (b.sum("specpmt_sim_ns_total") -
                       a.sum("specpmt_sim_ns_total")) /
                          kShards)
        .num("log_peak_bytes", b.sum("perfbench_shard_log_peak_bytes"));
    out.num("net_evicted", b.sum("specpmt_net_evicted_total") -
                               a.sum("specpmt_net_evicted_total"));
}

/**
 * Percentile @p p of @p hist, interpolated linearly inside the 1/8-
 * octave bucket that holds its rank (LatencyHistogram::percentile
 * returns the bucket's upper bound, up to 12.5% high). Still
 * quantized: exact only at bucket edges.
 */
double
interpolatedPercentile(const LatencyHistogram &hist, double p)
{
    if (hist.count() == 0)
        return 0;
    const double rank = p / 100.0 * static_cast<double>(hist.count());
    double seen = 0;
    const auto &buckets = hist.buckets();
    for (unsigned i = 0; i < buckets.size(); ++i) {
        const double n = static_cast<double>(buckets[i]);
        if (n == 0)
            continue;
        if (seen + n >= rank) {
            const double lo =
                static_cast<double>(LatencyHistogram::bucketLowerBound(i));
            const double hi = static_cast<double>(
                LatencyHistogram::bucketUpperBound(i));
            return lo + (hi - lo) * std::max(0.0, rank - seen) / n;
        }
        seen += n;
    }
    return static_cast<double>(hist.max());
}

std::string
histJson(const LatencyHistogram &hist)
{
    JsonObj out;
    out.num("count", static_cast<double>(hist.count()))
        .num("sum_ns", static_cast<double>(hist.sum()))
        .num("p50_ns", interpolatedPercentile(hist, 50))
        .num("p99_ns", interpolatedPercentile(hist, 99));
    return out.text();
}

net::LoadgenConfig
clientConfig(const Args &args)
{
    net::LoadgenConfig config;
    config.port = static_cast<std::uint16_t>(args.u64("port", 0));
    config.workload.keys = kKeys;
    config.workload.mix = kv::Mix::B;
    config.workload.dist = kv::KeyDist::Zipfian;
    config.arrival = net::Arrival::Fixed;
    config.strictFraction = 0.1;
    config.maxRetries = 2;
    config.drainSeconds = 10;
    return config;
}

/** Minimal blocking client for the read-back sweep. */
class SyncConn
{
  public:
    explicit SyncConn(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            die("verify: cannot connect");
    }

    ~SyncConn() { ::close(fd_); }

    void
    send(const std::vector<std::uint8_t> &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                die("verify: send failed");
            off += static_cast<std::size_t>(n);
        }
    }

    /** Next frame; false on a protocol error. */
    bool
    recv(net::Frame &frame)
    {
        while (true) {
            std::string err;
            switch (decoder_.next(frame, err)) {
            case net::FrameDecoder::Status::Frame:
                return true;
            case net::FrameDecoder::Status::Error:
                return false;
            case net::FrameDecoder::Status::NeedMore:
                break;
            }
            std::uint8_t buf[65536];
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                die("verify: connection closed");
            decoder_.feed(buf, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    net::FrameDecoder decoder_;
};

int
serveClientMain(const Args &args)
{
    const std::string phase = args.need("phase");
    const std::uint64_t seed = args.u64("seed", 1);
    const std::uint16_t admin_port =
        static_cast<std::uint16_t>(args.u64("admin-port", 0));
    const std::string acked_file = args.need("acked");
    net::LoadgenConfig base = clientConfig(args);

    if (phase == "load") {
        base.loadFirst = true;
        base.seconds = 0;
        base.seed = seed;
        const std::uint64_t t0 = nowNs();
        const net::LoadgenResult res = net::runOpenLoop(base);
        const std::uint64_t load_ns = nowNs() - t0;
        // The loaded payloads start the acked file: the read-back
        // checks keys the ladder never updates against them.
        std::ofstream file(acked_file);
        for (const auto &[key, payload] : res.ackedPuts)
            file << "l " << key << ' ' << payload << '\n';
        JsonObj out;
        out.num("load_ns", static_cast<double>(load_ns))
            .num("aborted", res.aborted ? 1 : 0)
            .num("errors", static_cast<double>(res.errors +
                                               res.protocolErrors));
        std::printf("%s\n", out.text().c_str());
        return res.aborted ? 1 : 0;
    }

    if (phase == "ladder") {
        const bool trace = args.u64("trace", 0) != 0;
        if (trace)
            obs::Tracer::global().enable();
        const double seconds = args.f64("seconds", 0);
        std::map<kv::KvKey, std::uint64_t> acked;
        std::map<kv::KvKey, std::vector<std::uint64_t>> unacked;
        std::string steps;
        for (std::size_t i = 0; i < kLadderSteps; ++i) {
            net::LoadgenConfig config = base;
            config.targetQps = kLadderQps[i];
            config.seconds = i == 0 ? kProbeShare * seconds
                                    : (1 - kProbeShare) * seconds /
                                          (kLadderSteps - 1);
            config.seed = mix64(seed + 0x51ull * (i + 1));
            config.traceSample = trace ? kTraceSample : 0;
            const Scrape before = scrape(admin_port);
            const std::uint64_t t0 = nowNs();
            const net::LoadgenResult res = net::runOpenLoop(config);
            const std::uint64_t wall = nowNs() - t0;
            const Scrape after = scrape(admin_port);
            if (res.aborted)
                die("ladder: " + res.error);
            for (const auto &[key, payload] : res.ackedPuts)
                acked[key] = payload;
            for (const auto &[key, list2] : res.unackedPuts)
                for (const std::uint64_t p : list2)
                    unacked[key].push_back(p);
            JsonObj step;
            step.num("rate", kLadderQps[i])
                .num("wall_ns", static_cast<double>(wall))
                .num("scheduled", static_cast<double>(res.scheduled))
                .num("sent", static_cast<double>(res.sent))
                .num("acked", static_cast<double>(res.acked))
                .num("errors", static_cast<double>(res.errors))
                .num("not_found", static_cast<double>(res.notFound))
                .num("lost", static_cast<double>(res.lost))
                .num("protocol_errors",
                     static_cast<double>(res.protocolErrors))
                .num("strict_sent", static_cast<double>(res.strictSent))
                .num("busy", static_cast<double>(res.busyResponses))
                .num("sendlag_p99_ns",
                     interpolatedPercentile(res.sendLag, 99))
                .raw("read", histJson(res.readLatency))
                .raw("update", histJson(res.updateLatency));
            LatencyHistogram all = res.readLatency;
            all.merge(res.updateLatency);
            step.raw("all", histJson(all));
            for (const char *stage : {"queue", "exec", "seal_wait", "write"})
                stageDelta(step, stage, before, after);
            counterDeltas(step, before, after);
            steps += (steps.empty() ? "" : ", ") + step.text();
        }
        std::ofstream file(acked_file, std::ios::app);
        for (const auto &[key, payload] : acked)
            file << "a " << key << ' ' << payload << '\n';
        for (const auto &[key, alts] : unacked)
            for (const std::uint64_t p : alts)
                file << "u " << key << ' ' << p << '\n';
        if (trace) {
            obs::Tracer::global().writeChromeJson(args.need("trace-out"));
            obs::HttpResponse resp;
            std::string err;
            if (obs::httpGet("127.0.0.1", admin_port, "/trace?ms=60000",
                             resp, err, 20000) &&
                resp.status == 200)
                std::ofstream(args.need("server-trace-out")) << resp.body;
        }
        std::printf("{\"live_bytes\": %llu, \"steps\": [%s]}\n",
                    static_cast<unsigned long long>(kLiveBytes),
                    steps.c_str());
        return 0;
    }

    if (phase == "verify") {
        // Every key must read back over the wire with its tag intact,
        // holding its newest acked payload (or a never-acked later
        // overwrite); keys the ladder never updated hold the payload
        // the load wrote.
        const std::uint64_t keys = base.workload.keys;
        std::map<kv::KvKey, std::uint64_t> acked;
        std::map<kv::KvKey, std::vector<std::uint64_t>> unacked;
        std::uint64_t ladder_acked = 0;
        std::ifstream file(acked_file);
        char tag;
        kv::KvKey key;
        std::uint64_t payload;
        while (file >> tag >> key >> payload) {
            if (tag == 'u') {
                unacked[key].push_back(payload);
                continue;
            }
            acked[key] = payload; // 'a' lines follow the 'l' lines
            ladder_acked += tag == 'a';
        }
        if (acked.size() != keys)
            die("verify: the acked file does not cover the keyspace");
        SyncConn conn(static_cast<std::uint16_t>(args.u64("port", 0)));
        std::uint64_t violations = 0;
        std::uint64_t protocol_errors = 0;
        constexpr std::uint64_t kChunk = 512;
        for (std::uint64_t first = 1; first <= keys; first += kChunk) {
            const std::uint64_t last = std::min(keys, first + kChunk - 1);
            std::vector<std::uint8_t> out;
            for (std::uint64_t k = first; k <= last; ++k)
                net::appendGet(out, k, k);
            conn.send(out);
            for (std::uint64_t k = first; k <= last; ++k) {
                net::Frame frame;
                kv::KvValue value{};
                if (!conn.recv(frame) || frame.id != k) {
                    ++protocol_errors;
                    die("verify: broken response stream");
                }
                bool ok = frame.op == net::Op::Value &&
                          net::parseValue(frame, value) &&
                          value.checkTag(k);
                if (ok) {
                    const auto it = acked.find(k);
                    if (value.words[1] != it->second) {
                        const auto &alts = unacked[k];
                        ok = std::find(alts.begin(), alts.end(),
                                       value.words[1]) != alts.end();
                    }
                }
                if (!ok) {
                    if (violations < 5)
                        std::fprintf(stderr,
                                     "perfbench: key %llu fails "
                                     "read-back\n",
                                     static_cast<unsigned long long>(k));
                    ++violations;
                }
            }
        }
        JsonObj out;
        out.num("verified_keys", static_cast<double>(keys))
            .num("acked_keys", static_cast<double>(ladder_acked))
            .num("violations", static_cast<double>(violations))
            .num("protocol_errors", static_cast<double>(protocol_errors));
        std::printf("%s\n", out.text().c_str());
        return 0;
    }
    die("serve-client: unknown --phase=" + phase);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench kv-run|kv-report|serve|serve-client "
            "--name=value...");
    const std::string cmd = argv[1];
    const Args args(argc, argv, 2);
    if (cmd == "kv-run")
        return kvRunMain(args);
    if (cmd == "kv-report")
        return kvReportMain(args);
    if (cmd == "serve")
        return serveMain(args);
    if (cmd == "serve-client")
        return serveClientMain(args);
    die("unknown subcommand " + cmd);
}
