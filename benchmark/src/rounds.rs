//! The round loop every op-replaying section shares: start rounds until the
//! plan's time is up, time each op, fold each round into an envelope.

use crate::spans::{SpanBuf, TraceSink};
use crate::stats::Envelope;
use std::time::Instant;

/// Which rounds record spans.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    /// Untraced and traced rounds alternate, untraced first.
    Alternate,
    Every,
}

/// How long to measure: until `seconds` have passed and every envelope has
/// at least `min_rounds` rounds.
#[derive(Clone, Copy)]
pub struct Plan {
    pub seconds: f64,
    pub min_rounds: usize,
    pub tracing: Tracing,
    /// Keep every round's samples (for `load.disturbed_share`).
    pub keep_rounds: bool,
}

impl Plan {
    /// A workload's own ops: for `seconds`; with tracing, untraced and
    /// traced rounds alternate so their envelopes can be compared.
    pub fn home(seconds: f64, trace: bool) -> Self {
        Self {
            seconds,
            min_rounds: 2,
            tracing: if trace {
                Tracing::Alternate
            } else {
                Tracing::Off
            },
            keep_rounds: trace,
        }
    }

    /// A short traced probe of a section that is not the workload's own.
    pub fn probe(rounds: usize) -> Self {
        Self {
            seconds: 0.0,
            min_rounds: rounds,
            tracing: Tracing::Every,
            keep_rounds: false,
        }
    }
}

pub struct Rounds {
    /// Envelope of the untraced rounds (of the traced ones under
    /// `Tracing::Every`).
    pub env: Envelope,
    /// Envelope of the traced rounds under `Tracing::Alternate`.
    pub traced: Envelope,
}

/// Runs `round` under `plan`. `round` gets a latency slot per op and, in a
/// traced round, the span buffer; it returns the ns the round spent outside
/// its ops. Traced rounds end by rolling their spans into `sink`.
pub fn run_rounds(
    plan: Plan,
    ops: usize,
    mut sink: Option<TraceSink<'_>>,
    mut round: impl FnMut(&mut [u64], Option<&mut SpanBuf>) -> u64,
) -> Rounds {
    let tracing = if sink.is_some() {
        plan.tracing
    } else {
        Tracing::Off
    };
    let mut out = Rounds {
        env: Envelope::new(plan.keep_rounds),
        traced: Envelope::new(false),
    };
    let mut latencies = vec![0u64; ops];
    let started = Instant::now();
    for n in 0.. {
        let done = match tracing {
            Tracing::Alternate => out.env.rounds().min(out.traced.rounds()),
            _ => out.env.rounds(),
        };
        if done >= plan.min_rounds && started.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
        let traced = match tracing {
            Tracing::Off => false,
            Tracing::Alternate => n % 2 == 1,
            Tracing::Every => true,
        };
        let spans = match &mut sink {
            Some(s) if traced => Some(&mut *s.buf),
            _ => None,
        };
        let rest_ns = round(&mut latencies, spans);
        if let (true, Some(s)) = (traced, &mut sink) {
            s.end_round();
        }
        if traced && tracing == Tracing::Alternate {
            out.traced.add_round(&latencies, rest_ns);
        } else {
            out.env.add_round(&latencies, rest_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::LayerTable;

    #[test]
    fn untraced_plan_runs_min_rounds_and_keeps_the_quietest() {
        let mut calls = 0u64;
        let rounds = run_rounds(Plan::home(0.0, false), 2, None, |lat, spans| {
            assert!(spans.is_none());
            calls += 1;
            lat.copy_from_slice(&[10 * calls, 30 / calls]);
            100 - calls
        });
        assert_eq!(calls, 2);
        assert_eq!(rounds.env.min, vec![10, 15]);
        assert_eq!(rounds.env.rest_ns, 98);
        assert_eq!(rounds.traced.rounds(), 0);
    }

    #[test]
    fn alternate_plan_splits_rounds_and_rolls_spans_up() {
        let mut buf = SpanBuf::with_capacity(64);
        let mut table = LayerTable::default();
        let mut kept = Vec::new();
        let sink = TraceSink {
            buf: &mut buf,
            table: &mut table,
            kept: &mut kept,
        };
        let mut traced_rounds = 0;
        let rounds = run_rounds(Plan::home(0.0, true), 1, Some(sink), |lat, spans| {
            lat[0] = 5;
            if let Some(spans) = spans {
                traced_rounds += 1;
                spans.scope("op", 0, |_| ());
            }
            0
        });
        assert_eq!((rounds.env.rounds(), rounds.traced.rounds()), (2, 2));
        assert_eq!(traced_rounds, 2);
        assert_eq!(table.total["op"].rounds(), 2);
        assert_eq!(kept.len(), 1, "the first traced round is kept");

        // Without a sink nothing can be traced, whatever the plan says.
        let rounds = run_rounds(Plan::probe(3), 1, None, |_, spans| {
            assert!(spans.is_none());
            0
        });
        assert_eq!(rounds.env.rounds(), 3);
    }
}
