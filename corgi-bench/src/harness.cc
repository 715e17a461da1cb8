#include "bench.hh"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "sim/simulation.hh"

namespace corgi::bench {

namespace sim = cg::sim;

double
hostNow()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

// ------------------------------------------------------------- Digest

void
Digest::add(const std::string& s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
    // Length-terminate so ("ab","c") and ("a","bc") differ.
    add(static_cast<std::uint64_t>(s.size()));
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// -------------------------------------------------------------- Spans

void
Spans::begin(const char* name, double sim_s)
{
    const double t = hostNow();
    // Keep B/E pairs whole: a begin is recorded only with room for its
    // end and the ends of every span still open.
    const bool rec = events_.size() + stack_.size() + 2 <= kMaxEvents;
    stack_.push_back({name, t, sim_s, 0.0, rec});
    if (rec)
        events_.push_back({name, 'B', t * 1e6, 0.0, 0.0});
}

void
Spans::end(double sim_s)
{
    const double t = hostNow();
    const Open o = stack_.back();
    stack_.pop_back();
    const double dur = t - o.t0;
    const double self = dur - o.childS;
    if (!stack_.empty())
        stack_.back().childS += dur;
    Totals& tot = totals_[o.name];
    ++tot.count;
    tot.totalS += dur;
    tot.selfS += self;
    tot.simS += sim_s - o.sim0;
    if (o.recorded) {
        events_.push_back(
            {o.name, 'E', t * 1e6, (sim_s - o.sim0) * 1e6, self * 1e6});
    } else {
        ++dropped_;
    }
}

std::string
Spans::exportJson() const
{
    // Same object format as sim::Tracer::exportJson: metadata naming
    // the track, then B/E pairs; ts is host microseconds here.
    std::string out = "{\"traceEvents\": [\n";
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 3, "
           "\"tid\": 0, \"args\": {\"name\": \"corgi-bench\"}},\n";
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 3, "
           "\"tid\": 1, \"args\": {\"name\": \"harness\"}}";
    char buf[256];
    for (const Event& e : events_) {
        if (e.phase == 'B') {
            std::snprintf(buf, sizeof buf,
                          ",\n{\"name\": \"%s\", \"ph\": \"B\", "
                          "\"ts\": %.3f, \"pid\": 3, \"tid\": 1}",
                          e.name, e.tsUs);
        } else {
            std::snprintf(buf, sizeof buf,
                          ",\n{\"name\": \"%s\", \"ph\": \"E\", "
                          "\"ts\": %.3f, \"pid\": 3, \"tid\": 1, "
                          "\"args\": {\"sim_us\": %.3f, "
                          "\"self_us\": %.3f}}",
                          e.name, e.tsUs, e.simUs, e.selfUs);
        }
        out += buf;
    }
    std::snprintf(buf, sizeof buf,
             "\n], \"displayTimeUnit\": \"ns\", \"droppedEvents\": %llu}\n",
             static_cast<unsigned long long>(dropped_));
    out += buf;
    return out;
}

bool
Spans::writeFile(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string body = exportJson();
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
}

Scope::Scope(Ctx& ctx, const char* name, Testbed* bed)
    : ctx_(ctx), bed_(bed)
{
    if (ctx_.spans) {
        ctx_.spans->begin(
            name, bed_ ? sim::toSec(bed_->sim().now()) : 0.0);
    }
}

Scope::~Scope()
{
    if (ctx_.spans)
        ctx_.spans->end(bed_ ? sim::toSec(bed_->sim().now()) : 0.0);
}

// ------------------------------------------------------------ folding

namespace {

bool
isIndexed(const std::string& part, const char* prefix)
{
    const std::size_t n = std::char_traits<char>::length(prefix);
    if (part.size() <= n || part.compare(0, n, prefix) != 0)
        return false;
    for (std::size_t i = n; i < part.size(); ++i) {
        if (part[i] < '0' || part[i] > '9')
            return false;
    }
    return true;
}

std::vector<std::string>
splitDots(const std::string& s)
{
    std::vector<std::string> parts;
    std::size_t b = 0;
    for (;;) {
        const std::size_t e = s.find('.', b);
        parts.push_back(s.substr(b, e - b));
        if (e == std::string::npos)
            return parts;
        b = e + 1;
    }
}

/** Modules that register one StatGroup per VM ("<mod>.<vm>.*"). */
bool
perVmModule(const std::string& m)
{
    return m == "kvm" || m == "guest" || m == "gapped" ||
           m == "migrate" || m == "mqnet" || m == "openloop";
}

/** Map a registered stat name to its module total: per-VM, per-vCPU
 * and per-queue components are dropped, sample stats get ".count". */
std::string
foldName(const std::string& name, sim::StatRegistry::Kind kind)
{
    std::vector<std::string> parts = splitDots(name);
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i == 1 && perVmModule(parts[0]) && parts.size() >= 3)
            continue;
        if (isIndexed(parts[i], "vcpu") || isIndexed(parts[i], "q"))
            continue;
        if (!out.empty())
            out += '.';
        out += parts[i];
    }
    using Kind = sim::StatRegistry::Kind;
    if (kind != Kind::Counter && kind != Kind::Value)
        out += ".count";
    return out;
}

double
statValue(const sim::StatRegistry::StatRef& r)
{
    using Kind = sim::StatRegistry::Kind;
    switch (r.kind) {
      case Kind::Counter:
        return static_cast<double>(r.counter()->value());
      case Kind::Value:
        return static_cast<double>(*r.value());
      case Kind::Accumulator:
        return static_cast<double>(r.accumulator()->count());
      case Kind::Distribution:
        return static_cast<double>(r.distribution()->count());
      case Kind::Latency:
        return static_cast<double>(r.latency()->count());
    }
    return 0.0;
}

/** Fold the registry's entries selected by @p keep into @p into. */
template <typename Keep>
void
foldInto(const sim::StatRegistry& reg, std::map<std::string, double>& into,
         Keep keep)
{
    for (const std::string& n : reg.names()) {
        if (!keep(n))
            continue;
        const auto ref = reg.find(n);
        into[foldName(n, ref.kind)] += statValue(ref);
    }
}

} // namespace

// -------------------------------------------------------------- Phase

Phase::Phase(Ctx& ctx, std::string name, Tick quantum)
    : ctx_(ctx), quantum_(quantum)
{
    out_.name = std::move(name);
    if (ctx_.spans)
        ctx_.spans->begin("phase", 0.0);
}

Phase::~Phase()
{
    if (!finished_ && bed_)
        finish(ctx_.setupOnly ? "set-up only" : "unfinished");
}

const Boundaries*
Phase::replay() const
{
    if (ctx_.slicing != Slicing::Single || !ctx_.replay)
        return nullptr;
    const std::size_t i = ctx_.phases.size();
    return i < ctx_.replay->size() ? &(*ctx_.replay)[i] : nullptr;
}

Testbed&
Phase::build(Testbed::Config cfg)
{
    setup("Testbed", [&] {
        bed_ = std::make_unique<Testbed>(cfg);
        return 0;
    });
    return *bed_;
}

void
Phase::step(Tick to)
{
    const double t0 = hostNow();
    bed_->run(to);
    const double dt = hostNow() - t0;
    out_.simRunS += dt;
    pendingMax_ = std::max(pendingMax_, bed_->sim().queue().pending());
    if (timed_) {
        const double now = hostNow();
        out_.quantaMs.push_back((now - quantumStart_) * 1e3);
        quantumStart_ = now;
    }
}

bool
Phase::boot(Tick limit)
{
    const double t0 = hostNow();
    {
        Scope s(ctx_, "boot", bed_.get());
        bed_->spawnStart();
        if (const Boundaries* b = replay()) {
            step(b->bootEnd);
        } else {
            while (!bed_->started().isOpen() &&
                   bed_->sim().now() < limit) {
                step(bed_->sim().now() + quantum_);
            }
        }
    }
    out_.setupS += hostNow() - t0;
    out_.bounds.bootEnd = bed_->sim().now();
    const bool ok = bed_->started().isOpen() &&
                    bed_->startFailures() == 0;
    check(ok, "testbed did not boot");
    return ok;
}

void
Phase::beginTimed()
{
    timed_ = true;
    timedStart_ = hostNow();
    quantumStart_ = timedStart_;
    if (ctx_.spans)
        ctx_.spans->begin("timed", sim::toSec(bed_->sim().now()));
}

void
Phase::endTimed()
{
    out_.wallS += hostNow() - timedStart_;
    timed_ = false;
    if (ctx_.spans)
        ctx_.spans->end(sim::toSec(bed_->sim().now()));
    out_.bounds.end = bed_->sim().now();
}

bool
Phase::runUntil(const std::function<bool()>& done, Tick limit)
{
    beginTimed();
    if (const Boundaries* b = replay()) {
        step(b->end);
    } else {
        while (!done() && bed_->sim().now() < limit) {
            Scope s(ctx_, "quantum", bed_.get());
            step(bed_->sim().now() + quantum_);
        }
    }
    endTimed();
    const bool ok = done();
    check(ok, "workload did not complete within its simulated limit");
    return ok;
}

void
Phase::advanceTo(Tick t, const std::function<void()>& after_quantum)
{
    if (replay()) {
        step(t);
    } else {
        while (bed_->sim().now() < t) {
            {
                Scope s(ctx_, "quantum", bed_.get());
                step(std::min(t, bed_->sim().now() + quantum_));
            }
            if (after_quantum)
                after_quantum();
        }
    }
    if (after_quantum)
        after_quantum();
}

void
Phase::check(bool cond, const std::string& what)
{
    if (cond)
        return;
    out_.ok = false;
    out_.problems.push_back(what);
}

void
Phase::retireVm(const std::string& vm_name)
{
    foldInto(bed_->sim().stats(), retired_, [&](const std::string& n) {
        const std::vector<std::string> p = splitDots(n);
        return p.size() >= 3 && perVmModule(p[0]) && p[1] == vm_name;
    });
}

void
Phase::finish(const std::string& results)
{
    finished_ = true;
    sim::Simulation& s = bed_->sim();
    Digest d;
    d.add(out_.name);
    d.add(results);
    d.add(s.stats().dumpText());
    for (const auto& [k, v] : retired_)
        d.add(k + "=" + std::to_string(v));
    d.add(static_cast<std::uint64_t>(s.now()));
    out_.digest = d.hex();

    std::map<std::string, double>& L = out_.layer;
    L = retired_;
    foldInto(s.stats(), L, [](const std::string&) { return true; });
    for (int g = 0; g <= static_cast<int>(cg::rmm::GranuleState::Data);
         ++g) {
        const auto st = static_cast<cg::rmm::GranuleState>(g);
        L[std::string("rmm.granules.") + cg::rmm::granuleStateName(st)] +=
            static_cast<double>(bed_->rmm().granules().countInState(st));
    }
    L["sim.run_s"] = out_.simRunS;
    L["sim.sim_s"] = sim::toSec(s.now());
    L["sim.processes"] = static_cast<double>(s.processes().size());
    L["sim.pending_max"] = static_cast<double>(pendingMax_);

    if (ctx_.spans)
        ctx_.spans->end(sim::toSec(s.now()));
    ctx_.phases.push_back(std::move(out_));
}

} // namespace corgi::bench
