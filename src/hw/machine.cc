#include "hw/machine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

#include "hw/dram.h"
#include "hw/llc.h"
#include "hw/nic.h"
#include "hw/power.h"

namespace heracles::hw {

namespace {

/**
 * @p cfg, once it is a shape the machine can represent. Runs before any
 * member is built from it: the topology's socket masks and the per-socket
 * vectors both assume a valid shape.
 */
const MachineConfig&
Checked(const MachineConfig& cfg)
{
    HERACLES_CHECK_MSG(cfg.sockets >= 1 && cfg.sockets <= kMaxSockets,
                       "sockets must be in [1, " << kMaxSockets
                                                 << "]: " << cfg.sockets);
    HERACLES_CHECK_MSG(cfg.cores_per_socket >= 1,
                       "cores_per_socket must be at least 1: "
                           << cfg.cores_per_socket);
    // Topology::SiblingOf models at most 2-way SMT.
    HERACLES_CHECK_MSG(cfg.threads_per_core == 1 || cfg.threads_per_core == 2,
                       "threads_per_core must be 1 or 2: "
                           << cfg.threads_per_core);
    HERACLES_CHECK_MSG(cfg.LogicalCpus() <= kMaxCpus,
                       "too many cpus: " << cfg.LogicalCpus());
    return cfg;
}

/**
 * Adds one busy thread of a client to core @p c: the thread contributes
 * its share of the core's busy level and intensity, and its DVFS cap.
 */
void
AddThread(CorePowerRequest& c, double busy, double intensity,
          double freq_cap_ghz, int threads_per_core)
{
    // Each busy thread contributes its share; two busy threads saturate
    // the physical core.
    const double add = busy / threads_per_core;
    const double w_old = c.busy;
    c.busy = std::min(1.0, c.busy + add);
    const double w_new = c.busy - w_old;
    if (c.busy > 0.0) {
        c.intensity = (c.intensity * w_old + intensity * w_new) / c.busy;
    }
    if (freq_cap_ghz > 0.0) {
        c.dvfs_cap_ghz = c.dvfs_cap_ghz > 0.0
                             ? std::min(c.dvfs_cap_ghz, freq_cap_ghz)
                             : freq_cap_ghz;
    }
}

}  // namespace

Machine::Machine(const MachineConfig& cfg, sim::EventQueue& queue)
    : cfg_(Checked(cfg)),
      topo_(cfg),
      queue_(queue),
      noise_rng_(cfg.seed ^ 0xFEEDFACEull),
      dram_granted_(cfg.sockets, 0.0),
      socket_power_(cfg.sockets, 0.0)
{
    epoch_event_ = queue_.SchedulePeriodic(cfg.epoch, cfg.epoch,
                                           [this] { Resolve(); });
}

Machine::~Machine()
{
    queue_.Cancel(epoch_event_);
}

void
Machine::AddClient(ResourceClient* client)
{
    HERACLES_CHECK(client != nullptr);
    for (const auto& [other, st] : clients_) {
        HERACLES_CHECK_MSG(other != client,
                           "client registered twice: " << client->name());
    }
    clients_.emplace_back(client, ClientState{});
    demand_dirty_ = true;
}

void
Machine::RemoveClient(ResourceClient* client)
{
    for (auto it = clients_.begin(); it != clients_.end(); ++it) {
        if (it->first == client) {
            clients_.erase(it);
            memo_stores_ = 0;
            demand_dirty_ = true;
            return;
        }
    }
}

Machine::ClientState&
Machine::StateOf(ResourceClient* client)
{
    for (auto& [c, st] : clients_) {
        if (c == client) return st;
    }
    HERACLES_FATAL("unregistered client: " << client->name());
}

const Machine::ClientState&
Machine::StateOf(const ResourceClient* client) const
{
    for (const auto& [c, st] : clients_) {
        if (c == client) return st;
    }
    HERACLES_FATAL("unregistered client: " << client->name());
}

void
Machine::AssignCpus(ResourceClient* client, const CpuSet& cpus)
{
    for (int cpu : cpus.Cpus()) {
        HERACLES_CHECK_MSG(cpu < cfg_.LogicalCpus(),
                           "cpu " << cpu << " out of range");
    }
    if (!allow_sharing_) {
        for (const auto& [other, st] : clients_) {
            if (other != client && st.cpus.Intersects(cpus)) {
                HERACLES_FATAL("cpuset overlap between "
                               << client->name() << " and " << other->name()
                               << " without AllowCpuSharing");
            }
        }
    }
    ClientState& st = StateOf(client);
    st.cpus = cpus;
    BuildLayout(st);
    memo_stores_ = 0;
    demand_dirty_ = true;
}

void
Machine::BuildLayout(ClientState& st) const
{
    st.cpu_list.clear();
    st.siblings.clear();
    for (auto& cores : st.socket_cores) cores.clear();
    st.cpus.ForEach([&](int cpu) {
        st.cpu_list.push_back(cpu);
        st.siblings.push_back(topo_.SiblingOf(cpu));
        st.socket_cores[topo_.SocketOf(cpu)].push_back(
            topo_.CoreOf(cpu) % cfg_.cores_per_socket);
    });
}

const CpuSet&
Machine::CpusOf(const ResourceClient* client) const
{
    return StateOf(client).cpus;
}

void
Machine::SetCatWays(ResourceClient* client, int ways)
{
    HERACLES_CHECK_MSG(ways >= 0 && ways <= cfg_.llc_ways,
                       "bad CAT ways: " << ways);
    StateOf(client).cat_ways = ways;
    demand_dirty_ = true;
}

void
Machine::SetFreqCapGhz(ResourceClient* client, double ghz)
{
    HERACLES_CHECK_MSG(ghz == 0.0 ||
                           (ghz >= cfg_.min_ghz && ghz <= cfg_.turbo_1c_ghz),
                       "bad DVFS cap: " << ghz);
    StateOf(client).freq_cap_ghz = ghz;
    // The cap is in each resolve's busy inputs, so a cap change misses
    // the busy memo and needs no demand-dirty mark.
}

double
Machine::FreqCapOf(const ResourceClient* client) const
{
    return StateOf(client).freq_cap_ghz;
}

void
Machine::SetBeNetCeilGbps(double gbps)
{
    be_net_ceil_gbps_ = gbps;
    demand_dirty_ = true;
}

void
Machine::ResolveNow()
{
    // Unconditional: callers of this entry point (tests, benches,
    // characterization rigs) may have mutated client demand without going
    // through a marked channel.
    demand_dirty_ = true;
    Resolve();
}

void
Machine::SetNaiveArbitration(bool naive)
{
    naive_ = naive;
    demand_dirty_ = true;
    memo_stores_ = 0;
}

void
Machine::ReadInputs()
{
    inputs_.resize(clients_.size());
    for (size_t c = 0; c < clients_.size(); ++c) {
        const auto& [client, st] = clients_[c];
        inputs_[c] = {client->CpuBusyFraction(), client->PowerIntensity(),
                      client->HtAggression() - 1.0, st.freq_cap_ghz};
    }
}

bool
Machine::RestoreBusySolve()
{
    // Bytes, not values: -0.0 against 0.0, or a NaN, can only miss. A
    // key of another client count (stored before an AddClient) misses.
    const size_t bytes = inputs_.size() * sizeof(BusyInput);
    for (int e = 0; e < std::min(memo_stores_, kBusyMemoEntries); ++e) {
        const BusySolve& m = memo_[e];
        if (m.key.size() != inputs_.size() ||
            (bytes > 0 &&
             std::memcmp(m.key.data(), inputs_.data(), bytes) != 0)) {
            continue;
        }
        const double* out = m.out.data();
        for (auto& [client, st] : clients_) {
            st.view.ht_penalty = *out++;
            st.view.freq_ghz = *out++;
        }
        std::copy(out, out + cfg_.sockets, socket_power_.begin());
        return true;
    }
    return false;
}

void
Machine::StoreBusySolve()
{
    BusySolve& m = memo_[memo_stores_++ % kBusyMemoEntries];
    m.key.assign(inputs_.begin(), inputs_.end());
    m.out.clear();
    for (const auto& [client, st] : clients_) {
        m.out.push_back(st.view.ht_penalty);
        m.out.push_back(st.view.freq_ghz);
    }
    m.out.insert(m.out.end(), socket_power_.begin(), socket_power_.end());
}

void
Machine::Resolve()
{
    // The demand phases (LLC occupancy, DRAM grants, NIC shares) are pure
    // functions of inputs that only change through marked channels. The
    // HT and power phases are pure functions of inputs_ and the layout,
    // so they run only when inputs_ misses the memo. Telemetry runs
    // every resolve: it feeds the time-weighted means.
    const bool recompute = demand_dirty_ || naive_;
    demand_dirty_ = false;
    if (naive_) {
        // The reference never trusts the cached layout: rebuilding it
        // here reads every cpuset afresh, so the equivalence test checks
        // the cache AssignCpus maintains against one that is never stale.
        for (auto& [client, st] : clients_) BuildLayout(st);
    }
    ReadInputs();
    if (recompute) {
        ResolveLlcAndDram();
        ++demand_recomputes_;
    }
    if (naive_ || !RestoreBusySolve()) {
        ResolveHt();
        ResolvePowerAllSockets();
        ++busy_solves_;
        if (!naive_) StoreBusySolve();
    }
    if (recompute) ResolveNetwork();
    UpdateTelemetry();
    ++resolve_count_;
}

void
Machine::ResolveLlcAndDram()
{
    // Reset only the fields this phase owns. The HT phase assigns every
    // client's ht_penalty, the power phase re-zeroes freq_ghz, and the
    // network phase overwrites every net field whenever it reruns — so
    // skipping a phase leaves exactly the values it would recompute.
    for (auto& [c, st] : clients_) {
        std::fill(std::begin(st.view.llc_mb), std::end(st.view.llc_mb), 0.0);
        std::fill(std::begin(st.view.dram_demand_gbps),
                  std::end(st.view.dram_demand_gbps), 0.0);
        std::fill(std::begin(st.view.dram_granted_gbps),
                  std::end(st.view.dram_granted_gbps), 0.0);
        st.view.dram_stretch = 0.0;  // accumulated per socket below
    }

    // clients_ iterates in registration order (never pointer order —
    // grants must not depend on the heap); indices below are positions
    // in that container.
    for (int socket = 0; socket < cfg_.sockets; ++socket) {
        // Which clients have cpus here, and with what share of their cpus.
        std::vector<LlcRequest>& reqs = scratch_reqs_;
        std::vector<size_t>& idx = scratch_idx_;          // into `clients_`
        std::vector<double>& socket_frac = scratch_frac_; // cpus share here
        reqs.clear();
        idx.clear();
        socket_frac.clear();
        for (size_t i = 0; i < clients_.size(); ++i) {
            auto& [client, st] = clients_[i];
            const int here =
                static_cast<int>(st.socket_cores[socket].size());
            if (here == 0) continue;
            LlcRequest r;
            r.footprint_mb = client->LlcFootprintMb(socket);
            r.weight = client->LlcAccessWeight(socket);
            r.cat_ways = st.cat_ways;
            reqs.push_back(r);
            idx.push_back(i);
            socket_frac.push_back(static_cast<double>(here) /
                                  st.cpu_list.size());
        }

        ResolveLlc(cfg_, reqs, &scratch_llc_);
        const std::vector<double>& llc = scratch_llc_;

        // DRAM demand given the resolved cache shares.
        std::vector<double>& demand = scratch_demand_;
        demand.assign(reqs.size(), 0.0);
        for (size_t k = 0; k < reqs.size(); ++k) {
            demand[k] =
                clients_[idx[k]].first->DramDemandGbps(socket, llc[k]);
        }
        ResolveDram(cfg_, demand, &scratch_dram_);
        const DramOutcome& dram = scratch_dram_;
        dram_granted_[socket] = dram.total_granted_gbps;

        for (size_t k = 0; k < reqs.size(); ++k) {
            TaskView& v = clients_[idx[k]].second.view;
            v.llc_mb[socket] = llc[k];
            v.dram_demand_gbps[socket] = demand[k];
            v.dram_granted_gbps[socket] = dram.granted_gbps[k];
            // The stretch is a property of the socket; a task spanning
            // sockets sees the demand-weighted mean (computed below).
        }

        // Record per-socket stretch on each participating client,
        // weighted by the client's cpu fraction on this socket so a
        // client living on one socket sees only that socket's stretch.
        for (size_t k = 0; k < reqs.size(); ++k) {
            TaskView& v = clients_[idx[k]].second.view;
            v.dram_stretch += dram.stretch * socket_frac[k];
        }
    }

    // Clients with no cpus anywhere (or rounding shortfall) keep a
    // neutral stretch.
    for (auto& [c, st] : clients_) {
        if (st.view.dram_stretch < 1.0) st.view.dram_stretch = 1.0;
    }
}

void
Machine::ResolveHt()
{
    // HyperThread penalties: each cpu is charged for the busy HT
    // aggressors on its sibling and on the cpu itself; a client's penalty
    // is the mean over its cpus (1 with no cpus).
    const size_t n = clients_.size();
    for (size_t c = 0; c < n; ++c) {
        ClientState& st = clients_[c].second;
        double total = 0.0;
        for (size_t i = 0; i < st.cpu_list.size(); ++i) {
            const int cpu = st.cpu_list[i];
            const int sib = st.siblings[i];
            double p = 1.0;
            for (size_t o = 0; o < n; ++o) {
                const BusyInput& in = inputs_[o];
                if (o == c || in.ht_aggr <= 0.0) continue;
                const CpuSet& ocpus = clients_[o].second.cpus;
                if (sib >= 0 && ocpus.Contains(sib)) {
                    p += in.ht_aggr * in.busy;
                }
                if (ocpus.Contains(cpu)) {
                    // Sharing the same logical cpu (OS-only baseline) is
                    // considerably worse than sharing a sibling.
                    p += 1.6 * in.ht_aggr * in.busy;
                }
            }
            total += p;
        }
        st.view.ht_penalty =
            st.cpu_list.empty() ? 1.0 : total / st.cpu_list.size();
    }
}

void
Machine::ResolvePowerAllSockets()
{
    // This phase owns view.freq_ghz: zero it, accumulate the per-socket
    // weighted means, then apply the floor.
    for (auto& [c, st] : clients_) st.view.freq_ghz = 0.0;

    std::vector<CorePowerRequest>& cores = scratch_cores_;
    for (int socket = 0; socket < cfg_.sockets; ++socket) {
        // Each core's request from the busy threads on it, added in
        // client order.
        cores.assign(cfg_.cores_per_socket, CorePowerRequest{});
        for (size_t c = 0; c < clients_.size(); ++c) {
            const BusyInput& in = inputs_[c];
            for (int core_local : clients_[c].second.socket_cores[socket]) {
                AddThread(cores[core_local], in.busy, in.intensity,
                          in.freq_cap_ghz, cfg_.threads_per_core);
            }
        }
        ResolvePower(cfg_, cores, &power_scratch_, &scratch_power_,
                     /*reuse_neighbours=*/!naive_);
        const PowerOutcome& pw = scratch_power_;
        socket_power_[socket] = pw.socket_power_w;

        // Publish mean frequency per client on this socket.
        for (auto& [client, st] : clients_) {
            const std::vector<int>& here = st.socket_cores[socket];
            if (here.empty()) continue;
            double f = 0.0;
            for (int core_local : here) f += pw.freq_ghz[core_local];
            const int n = static_cast<int>(here.size());
            // Weighted across sockets by cpu count. The view's frequency
            // was zeroed at the start of this phase.
            const double frac =
                static_cast<double>(n) / st.cpu_list.size();
            st.view.freq_ghz += frac * (f / n);
        }
    }
    for (auto& [client, st] : clients_) {
        if (!st.cpus.Empty() && st.view.freq_ghz < cfg_.min_ghz) {
            st.view.freq_ghz = cfg_.min_ghz;
        }
    }
}

void
Machine::ResolveNetwork()
{
    NicRequest req;
    req.be_ceil_gbps = be_net_ceil_gbps_;
    for (auto& [client, st] : clients_) {
        if (st.cpus.Empty()) continue;
        if (client->is_lc()) {
            req.lc_demand_gbps += client->NetTxDemandGbps();
        } else {
            req.be_demand_gbps += client->NetTxDemandGbps();
        }
    }
    const NicOutcome out = ResolveNic(cfg_, req);
    lc_tx_gbps_ = out.lc_granted_gbps;
    be_tx_gbps_ = out.be_granted_gbps;
    link_util_ = out.link_utilization;

    for (auto& [client, st] : clients_) {
        if (client->is_lc()) {
            st.view.net_granted_gbps = out.lc_granted_gbps;
            st.view.net_delay_factor = out.lc_delay_factor;
            st.view.net_overloaded = out.lc_overloaded;
            st.view.net_drop_prob = out.lc_drop_prob;
        } else {
            // BE tasks split the BE grant in proportion to demand.
            const double d = client->NetTxDemandGbps();
            st.view.net_granted_gbps =
                req.be_demand_gbps > 0.0
                    ? out.be_granted_gbps * d / req.be_demand_gbps
                    : 0.0;
            st.view.net_delay_factor = 1.0;
            st.view.net_overloaded =
                d > st.view.net_granted_gbps + 1e-9;
        }
    }
}

void
Machine::UpdateTelemetry()
{
    double busy = 0.0;
    for (size_t c = 0; c < clients_.size(); ++c) {
        busy += inputs_[c].busy * clients_[c].second.cpus.Count();
    }
    cpu_util_ = std::min(1.0, busy / cfg_.LogicalCpus());

    const sim::SimTime now = queue_.Now();
    double dram = 0.0, power = 0.0;
    for (int s = 0; s < cfg_.sockets; ++s) {
        dram += dram_granted_[s];
        power += socket_power_[s];
    }
    avg_dram_.Set(now, dram);
    avg_power_.Set(now, power);
    avg_cpu_.Set(now, cpu_util_);
    avg_lc_tx_.Set(now, lc_tx_gbps_);
    avg_be_tx_.Set(now, be_tx_gbps_);
}

const TaskView&
Machine::ViewOf(const ResourceClient* client) const
{
    return StateOf(client).view;
}

double
Machine::MeasuredDramGbps(int socket) const
{
    HERACLES_CHECK(socket >= 0 && socket < cfg_.sockets);
    const double noise =
        1.0 + noise_rng_.Uniform(-cfg_.counter_noise, cfg_.counter_noise);
    return dram_granted_[socket] * noise;
}

double
Machine::MeasuredTotalDramGbps() const
{
    double total = 0.0;
    for (int s = 0; s < cfg_.sockets; ++s) total += MeasuredDramGbps(s);
    return total;
}

double
Machine::MeasuredSocketPowerW(int socket) const
{
    HERACLES_CHECK(socket >= 0 && socket < cfg_.sockets);
    const double noise =
        1.0 + noise_rng_.Uniform(-cfg_.counter_noise, cfg_.counter_noise);
    return socket_power_[socket] * noise;
}

double
Machine::MeasuredFreqGhz(const ResourceClient* client) const
{
    return StateOf(client).view.freq_ghz;
}

double
Machine::LcTxGbps() const
{
    return lc_tx_gbps_;
}

double
Machine::BeTxGbps() const
{
    return be_tx_gbps_;
}

MachineTelemetry
Machine::Telemetry() const
{
    MachineTelemetry t;
    for (int s = 0; s < cfg_.sockets; ++s) {
        t.dram_gbps += dram_granted_[s];
        t.power_w += socket_power_[s];
    }
    t.dram_frac = t.dram_gbps / cfg_.TotalDramGbps();
    t.cpu_utilization = cpu_util_;
    t.power_frac_tdp = t.power_w / cfg_.TotalTdpW();
    t.lc_tx_gbps = lc_tx_gbps_;
    t.be_tx_gbps = be_tx_gbps_;
    t.net_frac = link_util_;
    return t;
}

MachineTelemetry
Machine::AveragedTelemetry() const
{
    const sim::SimTime now = queue_.Now();
    MachineTelemetry t;
    t.dram_gbps = avg_dram_.Mean(now);
    t.dram_frac = t.dram_gbps / cfg_.TotalDramGbps();
    t.cpu_utilization = avg_cpu_.Mean(now);
    t.power_w = avg_power_.Mean(now);
    t.power_frac_tdp = t.power_w / cfg_.TotalTdpW();
    t.lc_tx_gbps = avg_lc_tx_.Mean(now);
    t.be_tx_gbps = avg_be_tx_.Mean(now);
    t.net_frac = (t.lc_tx_gbps + t.be_tx_gbps) / cfg_.nic_gbps;
    return t;
}

void
Machine::ResetTelemetryAverages()
{
    const sim::SimTime now = queue_.Now();
    avg_dram_ = sim::TimeWeightedMean();
    avg_power_ = sim::TimeWeightedMean();
    avg_cpu_ = sim::TimeWeightedMean();
    avg_lc_tx_ = sim::TimeWeightedMean();
    avg_be_tx_ = sim::TimeWeightedMean();
    telemetry_reset_time_ = now;
    // Seed the averages with the current levels.
    ReadInputs();
    UpdateTelemetry();
}

}  // namespace heracles::hw
