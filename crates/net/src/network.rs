//! The crawler-side network client: fetches from a [`Server`] through a
//! [`LatencyModel`], charging a [`SimClock`] and keeping the per-request
//! accounting behind the caching experiments (Figs. 7.5–7.7).
//!
//! With a [`FaultPlan`] attached, the client becomes the fault-injection
//! point: [`NetClient::try_fetch_timed`] is the fallible fetch that can
//! time out, drop, or receive injected error statuses — all deterministic
//! per `(plan seed, url, attempt)` and all charged to the virtual clock.

use crate::clock::{Micros, SimClock};
use crate::fault::{FaultDecision, FaultPlan, NetError};
use crate::latency::LatencyModel;
use crate::server::{Request, Response, Server};
use crate::url::Url;
use std::collections::HashMap;
use std::sync::Arc;

/// Aggregate network statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Number of requests actually sent to the server.
    pub requests: u64,
    /// Total response bytes transferred.
    pub bytes: u64,
    /// Total virtual time spent on the network.
    pub network_micros: Micros,
    /// Virtual time spent in pure waits (retry backoff), charged via
    /// [`NetClient::charge_wait`]. Not part of `network_micros`.
    pub wait_micros: Micros,
    /// Requests that timed out (injected).
    pub timeouts: u64,
    /// Connections dropped mid-transfer (injected).
    pub drops: u64,
    /// Injected HTTP error responses (transient/permanent/flaky 5xx).
    pub injected_errors: u64,
}

/// A virtual HTTP client owned by one crawler.
pub struct NetClient {
    server: Arc<dyn Server>,
    latency: LatencyModel,
    clock: SimClock,
    stats: NetStats,
    seq: u64,
    faults: Option<FaultPlan>,
    /// Per-URL attempt counters driving the fault plan's decisions. Keeping
    /// them client-side (not on the shared server) preserves per-partition
    /// determinism regardless of thread scheduling.
    attempts: HashMap<String, u32>,
}

impl NetClient {
    /// Creates a client talking to `server` under `latency`.
    pub fn new(server: Arc<dyn Server>, latency: LatencyModel) -> Self {
        Self {
            server,
            latency,
            clock: SimClock::new(),
            stats: NetStats::default(),
            seq: 0,
            faults: None,
            attempts: HashMap::new(),
        }
    }

    /// Attaches a fault plan (builder style). Subsequent fetches consult it.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The fallible fetch: consults the fault plan (if any) and either
    /// performs the request, returns an injected HTTP error response, or
    /// fails at the transport level with a [`NetError`]. All outcomes charge
    /// the virtual clock; transport failures burn the plan's timeout/drop
    /// budgets.
    pub fn try_fetch_timed(&mut self, url: &Url) -> Result<(Response, Micros), NetError> {
        let url_str = url.to_string();
        let attempt = {
            let n = self.attempts.entry(url_str.clone()).or_insert(0);
            let current = *n;
            *n += 1;
            current
        };
        let decision = match &self.faults {
            Some(plan) => plan.decide(&url_str, attempt),
            None => FaultDecision::None,
        };
        match decision {
            FaultDecision::None => Ok(self.transfer(url, 1.0)),
            FaultDecision::Slow { factor } => Ok(self.transfer(url, factor.max(0.0))),
            FaultDecision::Fail { status } => {
                let response = Response {
                    status,
                    content_type: "text/plain".into(),
                    body: "injected fault".into(),
                };
                let cost = self.latency.cost(&url_str, self.seq, response.len());
                self.seq += 1;
                self.clock.advance(cost);
                self.stats.requests += 1;
                self.stats.bytes += response.len() as u64;
                self.stats.network_micros += cost;
                self.stats.injected_errors += 1;
                Ok((response, cost))
            }
            FaultDecision::Timeout => {
                let after = self.faults.as_ref().map(|p| p.timeout_micros).unwrap_or(0);
                self.seq += 1;
                self.clock.advance(after);
                self.stats.requests += 1;
                self.stats.network_micros += after;
                self.stats.timeouts += 1;
                Err(NetError::Timeout {
                    url: url_str,
                    after,
                })
            }
            FaultDecision::Drop => {
                let after = self.faults.as_ref().map(|p| p.drop_micros).unwrap_or(0);
                self.seq += 1;
                self.clock.advance(after);
                self.stats.requests += 1;
                self.stats.network_micros += after;
                self.stats.drops += 1;
                Err(NetError::Dropped {
                    url: url_str,
                    after,
                })
            }
        }
    }

    /// Performs the actual request, with the latency cost scaled by
    /// `factor` (1.0 = nominal; >1 = injected slow response).
    fn transfer(&mut self, url: &Url, factor: f64) -> (Response, Micros) {
        let request = Request::get(url.clone());
        let response = self.server.handle(&request);
        let mut cost = self
            .latency
            .cost(&url.to_string(), self.seq, response.len());
        if factor != 1.0 {
            cost = (cost as f64 * factor).round() as Micros;
        }
        self.seq += 1;
        self.clock.advance(cost);
        self.stats.requests += 1;
        self.stats.bytes += response.len() as u64;
        self.stats.network_micros += cost;
        (response, cost)
    }

    /// Charges pure CPU time (parsing, JS, hashing…) to the same clock, so
    /// the clock reflects total crawl time.
    pub fn charge_cpu(&mut self, micros: Micros) {
        self.clock.advance(micros);
    }

    /// Charges a pure wait (retry backoff) to the clock. It occupies the
    /// process line but neither a CPU core nor the network, so it is
    /// accounted separately from both.
    pub fn charge_wait(&mut self, micros: Micros) {
        self.clock.advance(micros);
        self.stats.wait_micros += micros;
    }

    /// Current virtual time (network + charged CPU + waits).
    pub fn now(&self) -> Micros {
        self.clock.now()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The shared server handle (for spawning sibling clients).
    pub fn server(&self) -> Arc<dyn Server> {
        Arc::clone(&self.server)
    }

    /// The latency model in use.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Resets clock, stats, sequence number and attempt counters (fresh
    /// measurement window).
    pub fn reset(&mut self) {
        self.clock.reset();
        self.stats = NetStats::default();
        self.seq = 0;
        self.attempts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultRule};
    use crate::server::FnServer;

    fn client(latency: LatencyModel) -> NetClient {
        let server = Arc::new(FnServer(|req: &Request| {
            Response::text(format!("echo {}", req.url))
        }));
        NetClient::new(server, latency)
    }

    /// A fetch no fault plan interferes with.
    fn fetch(c: &mut NetClient, path: &str) -> Response {
        match c.try_fetch_timed(&Url::parse(path)) {
            Ok((response, _)) => response,
            Err(e) => panic!("no fault is planned: {e}"),
        }
    }

    #[test]
    fn fetch_accounts_time_and_bytes() {
        let mut c = client(LatencyModel::Fixed(1_000));
        let r1 = fetch(&mut c, "/a");
        let r2 = fetch(&mut c, "/bb");
        assert!(r1.body.contains("/a"));
        assert_eq!(c.stats().requests, 2);
        assert_eq!(c.stats().bytes, (r1.len() + r2.len()) as u64);
        assert_eq!(c.now(), 2_000);
        assert_eq!(c.stats().network_micros, 2_000);
    }

    #[test]
    fn cpu_charges_clock_not_network_stats() {
        let mut c = client(LatencyModel::Fixed(100));
        fetch(&mut c, "/a");
        c.charge_cpu(50);
        assert_eq!(c.now(), 150);
        assert_eq!(c.stats().network_micros, 100);
    }

    #[test]
    fn wait_charges_clock_separately() {
        let mut c = client(LatencyModel::Fixed(100));
        fetch(&mut c, "/a");
        c.charge_wait(40);
        assert_eq!(c.now(), 140);
        assert_eq!(c.stats().network_micros, 100);
        assert_eq!(c.stats().wait_micros, 40);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = client(LatencyModel::Fixed(100));
        fetch(&mut c, "/a");
        c.reset();
        assert_eq!(c.now(), 0);
        assert_eq!(c.stats(), &NetStats::default());
    }

    #[test]
    fn injected_timeout_charges_budget_and_errors() {
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::any(1.0, Fault::Timeout))
            .with_timeout_micros(5_000);
        let mut c = client(LatencyModel::Fixed(100)).with_fault_plan(plan);
        let err = c.try_fetch_timed(&Url::parse("/a")).unwrap_err();
        assert!(matches!(err, NetError::Timeout { after: 5_000, .. }));
        assert_eq!(c.now(), 5_000);
        assert_eq!(c.stats().timeouts, 1);
        assert_eq!(c.stats().bytes, 0, "nothing transferred");
    }

    #[test]
    fn injected_http_error_is_a_response() {
        let plan = FaultPlan::new(1).with_rule(FaultRule::any(1.0, Fault::Flaky { status: 503 }));
        let mut c = client(LatencyModel::Fixed(100)).with_fault_plan(plan);
        let (resp, _) = c.try_fetch_timed(&Url::parse("/a")).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(c.stats().injected_errors, 1);
    }

    #[test]
    fn transient_recovers_on_retry() {
        let plan = FaultPlan::new(1).with_rule(FaultRule::any(
            1.0,
            Fault::Transient {
                status: 503,
                fail_attempts: 2,
            },
        ));
        let mut c = client(LatencyModel::Zero).with_fault_plan(plan);
        let url = Url::parse("/a");
        assert_eq!(c.try_fetch_timed(&url).unwrap().0.status, 503);
        assert_eq!(c.try_fetch_timed(&url).unwrap().0.status, 503);
        assert!(c.try_fetch_timed(&url).unwrap().0.is_ok(), "3rd attempt ok");
    }

    #[test]
    fn slow_fault_scales_cost() {
        let plan = FaultPlan::new(1).with_rule(FaultRule::any(1.0, Fault::Slow { factor: 4.0 }));
        let mut c = client(LatencyModel::Fixed(1_000)).with_fault_plan(plan);
        let (resp, cost) = c.try_fetch_timed(&Url::parse("/a")).unwrap();
        assert!(resp.is_ok());
        assert_eq!(cost, 4_000);
    }
}
