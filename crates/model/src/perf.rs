//! The per-protocol latency/throughput model (Eq. 3–5 and §V-D).

use bamboo_types::{wire, Config, ProtocolKind, Transaction};

use crate::order_stats::expected_order_statistic;
use crate::queueing::md1_waiting_time;

/// Inputs of the analytical model. All times are in **seconds**, sizes in
/// bytes, rates in events per second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelParams {
    /// Number of replicas `N`.
    pub nodes: usize,
    /// Transactions per block `n`.
    pub block_size: usize,
    /// Size of one transaction on the wire (payload + header), bytes.
    pub tx_bytes: usize,
    /// Fixed per-block overhead (header + QC), bytes.
    pub block_overhead_bytes: usize,
    /// Mean one-way link delay µ used for vote collection (seconds).
    pub link_mean: f64,
    /// Standard deviation of the one-way link delay (seconds).
    pub link_std: f64,
    /// Mean client⇄replica round-trip time `t_L` (seconds).
    pub client_rtt: f64,
    /// CPU time per cryptographic operation `t_CPU` (seconds).
    pub t_cpu: f64,
    /// NIC bandwidth `b` (bytes per second).
    pub bandwidth: f64,
}

impl ModelParams {
    /// The parameters of a simulator configuration, so model and simulator
    /// are compared like with like (Fig. 8). The added network delay counts
    /// into the link mean; sizes are the codec's, as the simulator's NIC
    /// charges them ([`wire::block_overhead_len`]).
    pub fn from_config(config: &Config) -> Self {
        let link_mean = config.link_latency_mean.as_secs_f64();
        Self {
            nodes: config.nodes,
            block_size: config.block_size,
            tx_bytes: Transaction::HEADER_BYTES + config.payload_size,
            block_overhead_bytes: wire::block_overhead_len(config.nodes),
            link_mean: link_mean + config.extra_delay.as_secs_f64(),
            link_std: config.link_latency_std.as_secs_f64(),
            client_rtt: 2.0 * link_mean,
            t_cpu: config.cpu_delay.as_secs_f64(),
            bandwidth: config.bandwidth_bytes_per_sec as f64,
        }
    }

    /// Block size on the wire, `m`.
    pub fn block_bytes(&self) -> f64 {
        (self.block_overhead_bytes + self.block_size * self.tx_bytes) as f64
    }

    /// NIC delay `t_NIC = 2·m/b`.
    pub fn t_nic(&self) -> f64 {
        2.0 * self.block_bytes() / self.bandwidth
    }

    /// Quorum-collection delay `t_Q`: the `(⌈2N/3⌉ − 1)`-th order statistic of
    /// `N − 1` i.i.d. normal link delays.
    pub fn t_q(&self) -> f64 {
        if self.nodes <= 1 {
            return 0.0;
        }
        let n = self.nodes - 1;
        let quorum = bamboo_types::ids::quorum_threshold(self.nodes);
        let k = quorum.saturating_sub(1).clamp(1, n);
        expected_order_statistic(n, k, self.link_mean, self.link_std)
    }

    /// Block service time `t_s = 3·t_CPU + 2·t_NIC + t_Q` (Eq. 4).
    pub fn t_s(&self) -> f64 {
        3.0 * self.t_cpu + 2.0 * self.t_nic() + self.t_q()
    }
}

/// One predicted operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelPoint {
    /// Offered transaction arrival rate λ (tx/s).
    pub arrival_rate: f64,
    /// Predicted end-to-end latency (milliseconds); infinite past saturation.
    pub latency_ms: f64,
    /// Predicted committed throughput (tx/s) — equal to the arrival rate below
    /// saturation (Table II's observation), capped at the saturation rate.
    pub throughput_tx_per_sec: f64,
}

/// The analytical model specialised to one protocol.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfModel {
    /// Protocol being modelled.
    pub protocol: ProtocolKind,
    /// Model inputs.
    pub params: ModelParams,
}

impl PerfModel {
    /// Creates a model for `protocol` with the given parameters.
    pub fn new(protocol: ProtocolKind, params: ModelParams) -> Self {
        Self { protocol, params }
    }

    /// Commit delay `t_commit` after the block is certified (§V-C3, §V-D):
    /// one block service time for each further certified block the commit
    /// waits for — two for HotStuff, one for 2CHS and Streamlet.
    pub fn t_commit(&self) -> f64 {
        (self.protocol.commit_depth() - 1) as f64 * self.params.t_s()
    }

    /// The M/D/1 waiting time `w_Q` at transaction arrival rate λ (Eq. 5).
    pub fn waiting_time(&self, arrival_rate: f64) -> f64 {
        let p = &self.params;
        // Blocks arrive at each replica at rate γ = λ / (n·N); each replica's
        // effective service time for a block is N·t_s.
        let gamma = arrival_rate / (p.block_size as f64 * p.nodes as f64);
        md1_waiting_time(gamma, p.nodes as f64 * p.t_s())
    }

    /// Maximum sustainable transaction arrival rate (where ρ reaches 1).
    pub fn saturation_rate(&self) -> f64 {
        let p = &self.params;
        p.block_size as f64 / p.t_s()
    }

    /// End-to-end latency at arrival rate λ (Eq. 3), in seconds; infinite past
    /// saturation.
    pub fn latency(&self, arrival_rate: f64) -> f64 {
        let p = &self.params;
        let w = self.waiting_time(arrival_rate);
        if w.is_infinite() {
            return f64::INFINITY;
        }
        p.client_rtt + p.t_s() + self.t_commit() + w
    }

    /// Predicts a set of operating points for the given arrival rates.
    pub fn curve(&self, arrival_rates: &[f64]) -> Vec<ModelPoint> {
        let saturation = self.saturation_rate();
        arrival_rates
            .iter()
            .map(|&rate| ModelPoint {
                arrival_rate: rate,
                latency_ms: self.latency(rate) * 1_000.0,
                throughput_tx_per_sec: rate.min(saturation),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(nodes: usize, block_size: usize) -> ModelParams {
        ModelParams {
            nodes,
            block_size,
            tx_bytes: 56,
            block_overhead_bytes: 200,
            link_mean: 0.00025,
            link_std: 0.00005,
            client_rtt: 0.0005,
            t_cpu: 0.00002,
            bandwidth: 1.25e9,
        }
    }

    #[test]
    fn from_config_counts_the_added_delay_into_the_link_mean() {
        let mut config = Config {
            nodes: 8,
            payload_size: 128,
            ..Config::default()
        };
        let plain = ModelParams::from_config(&config);
        assert_eq!(plain.nodes, 8);
        assert_eq!(plain.tx_bytes, Transaction::HEADER_BYTES + 128);
        assert_eq!(plain.link_mean, config.link_latency_mean.as_secs_f64());
        config.extra_delay = bamboo_types::SimDuration::from_millis(5);
        let delayed = ModelParams::from_config(&config);
        assert!((delayed.link_mean - plain.link_mean - 0.005).abs() < 1e-12);
        assert_eq!(delayed.client_rtt, plain.client_rtt);
    }

    #[test]
    fn service_time_components_are_positive_and_additive() {
        let p = params(4, 400);
        assert!(p.t_nic() > 0.0);
        assert!(p.t_q() > 0.0);
        assert!((p.t_s() - (3.0 * p.t_cpu + 2.0 * p.t_nic() + p.t_q())).abs() < 1e-12);
    }

    #[test]
    fn hotstuff_commit_takes_one_more_round_than_two_chain() {
        let hs = PerfModel::new(ProtocolKind::HotStuff, params(4, 400));
        let two = PerfModel::new(ProtocolKind::TwoChainHotStuff, params(4, 400));
        let sl = PerfModel::new(ProtocolKind::Streamlet, params(4, 400));
        assert!((hs.t_commit() - 2.0 * hs.params.t_s()).abs() < 1e-12);
        assert!((two.t_commit() - two.params.t_s()).abs() < 1e-12);
        assert!((sl.t_commit() - sl.params.t_s()).abs() < 1e-12);
        // Unloaded latency ordering: 2CHS < HS.
        assert!(two.latency(1_000.0) < hs.latency(1_000.0));
    }

    #[test]
    fn latency_grows_with_load_and_diverges_at_saturation() {
        let model = PerfModel::new(ProtocolKind::HotStuff, params(4, 400));
        let saturation = model.saturation_rate();
        let low = model.latency(saturation * 0.1);
        let mid = model.latency(saturation * 0.6);
        let high = model.latency(saturation * 0.95);
        assert!(low < mid && mid < high);
        assert!(model.latency(saturation * 1.1).is_infinite());
    }

    #[test]
    fn bigger_blocks_raise_saturation_throughput() {
        let small = PerfModel::new(ProtocolKind::HotStuff, params(4, 100));
        let large = PerfModel::new(ProtocolKind::HotStuff, params(4, 800));
        assert!(large.saturation_rate() > small.saturation_rate());
    }

    #[test]
    fn more_nodes_increase_quorum_delay() {
        let small = params(4, 400);
        let large = params(64, 400);
        assert!(large.t_q() > small.t_q());
    }

    #[test]
    fn curve_reports_throughput_capped_at_saturation() {
        let model = PerfModel::new(ProtocolKind::TwoChainHotStuff, params(4, 400));
        let saturation = model.saturation_rate();
        let points = model.curve(&[saturation * 0.5, saturation * 2.0]);
        assert_eq!(points.len(), 2);
        assert!((points[0].throughput_tx_per_sec - saturation * 0.5).abs() < 1e-6);
        assert!((points[1].throughput_tx_per_sec - saturation).abs() < 1e-6);
        assert!(points[1].latency_ms.is_infinite());
    }
}
