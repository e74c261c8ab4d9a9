//! `gen`: hbench's open-loop load generator.
//!
//! Tickets are due on a fixed schedule whatever the system does. Each is
//! timed **from its due time**, not from when the generator got round to
//! sending it, so a stall — in the system's admission or in the generator —
//! is charged to every ticket it delayed. How late the generator itself ran
//! is reported next to the latencies, so a generator-bound run shows.

use std::collections::VecDeque;

/// A monotonic nanosecond clock; tests substitute a scripted one.
pub trait Clock {
    fn now_ns(&self) -> u64;
}

/// The system under load, one ticket at a time.
pub trait Sink {
    type Ticket;
    /// Sends ticket number `index`; `None` when the system refuses it.
    fn send(&mut self, index: u64) -> Option<Self::Ticket>;
    /// Non-blocking completion poll.
    fn is_done(&mut self, ticket: &Self::Ticket) -> bool;
    /// Redeems a completed ticket (and checks its output).
    fn finish(&mut self, index: u64, ticket: Self::Ticket);
}

/// What one open-loop phase observed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpenLoopStats {
    /// `(index, due, done)` of every delivered ticket, in completion order,
    /// on the run's clock.
    pub delivered: Vec<(u64, u64, u64)>,
    /// Due time to the moment the generator actually sent, per ticket.
    pub send_lag_ns: Vec<u64>,
    /// Tickets the schedule called for (all were attempted).
    pub sent: u64,
    /// Tickets the system refused.
    pub refused: u64,
    /// Sends that left more than one whole gap after their due time.
    pub late_sends: u64,
    /// First due time to last completion.
    pub wall_ns: u64,
}

impl OpenLoopStats {
    /// Due time to completion of every delivered ticket.
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.delivered
            .iter()
            .map(|&(_, due, done)| done - due)
            .collect()
    }
}

/// Runs `tickets` tickets spaced `gap_ns` apart, polling completions
/// oldest-first between sends, and drains what is in flight at the end.
pub fn run_open_loop<C: Clock, S: Sink>(
    clock: &C,
    sink: &mut S,
    gap_ns: u64,
    tickets: u64,
) -> OpenLoopStats {
    let mut stats = OpenLoopStats {
        delivered: Vec::with_capacity(tickets as usize),
        send_lag_ns: Vec::with_capacity(tickets as usize),
        ..OpenLoopStats::default()
    };
    let start = clock.now_ns();
    let mut in_flight: VecDeque<(u64, u64, S::Ticket)> = VecDeque::new();
    let mut next = 0u64;
    while next < tickets || !in_flight.is_empty() {
        let now = clock.now_ns();
        let due = start + next * gap_ns;
        if next < tickets && now >= due {
            let lag = now - due;
            stats.send_lag_ns.push(lag);
            if lag > gap_ns {
                stats.late_sends += 1;
            }
            match sink.send(next) {
                Some(ticket) => in_flight.push_back((next, due, ticket)),
                None => stats.refused += 1,
            }
            stats.sent += 1;
            next += 1;
        }
        while in_flight
            .front()
            .is_some_and(|(_, _, ticket)| sink.is_done(ticket))
        {
            let (index, due, ticket) = in_flight.pop_front().expect("front checked");
            stats.delivered.push((index, due, clock.now_ns()));
            sink.finish(index, ticket);
        }
    }
    stats.wall_ns = clock.now_ns() - start;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that advances by `tick` every time it is read, plus whatever
    /// the sink adds to simulate a stall.
    struct FakeClock {
        now: Cell<u64>,
        tick: u64,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            let now = self.now.get() + self.tick;
            self.now.set(now);
            now
        }
    }

    /// Every ticket completes `service_ns` after it was sent; sending ticket
    /// `stall_at` blocks the generator for `stall_ns`.
    struct FakeSink<'c> {
        clock: &'c FakeClock,
        service_ns: u64,
        stall_at: Option<u64>,
        stall_ns: u64,
        refuse: Option<u64>,
    }

    impl Sink for FakeSink<'_> {
        type Ticket = u64; // completion time
        fn send(&mut self, index: u64) -> Option<u64> {
            if self.refuse == Some(index) {
                return None;
            }
            if self.stall_at == Some(index) {
                self.clock.now.set(self.clock.now.get() + self.stall_ns);
            }
            Some(self.clock.now.get() + self.service_ns)
        }
        fn is_done(&mut self, ticket: &u64) -> bool {
            self.clock.now.get() >= *ticket
        }
        fn finish(&mut self, _index: u64, _ticket: u64) {}
    }

    #[test]
    fn an_unstalled_run_pays_only_the_service_time() {
        let clock = FakeClock {
            now: Cell::new(0),
            tick: 1,
        };
        let mut sink = FakeSink {
            clock: &clock,
            service_ns: 40,
            stall_at: None,
            stall_ns: 0,
            refuse: None,
        };
        let stats = run_open_loop(&clock, &mut sink, 1_000, 10);
        assert_eq!((stats.sent, stats.refused, stats.late_sends), (10, 0, 0));
        let latencies = stats.latencies_ns();
        assert_eq!(latencies.len(), 10);
        assert!(latencies.iter().all(|&ns| (40..60).contains(&ns)));
        assert!(stats.send_lag_ns.iter().all(|&ns| ns < 10));
    }

    #[test]
    fn a_stalled_send_is_charged_to_the_tickets_it_delayed() {
        let clock = FakeClock {
            now: Cell::new(0),
            tick: 1,
        };
        // Ticket 2 blocks the generator for 3.5 gaps: tickets 3, 4 and 5
        // come due during the stall and go out late.
        let mut sink = FakeSink {
            clock: &clock,
            service_ns: 40,
            stall_at: Some(2),
            stall_ns: 3_500,
            refuse: None,
        };
        let stats = run_open_loop(&clock, &mut sink, 1_000, 8);
        let latencies = stats.latencies_ns();
        assert_eq!(latencies.len(), 8);
        // The stalled ticket itself: stall + service.
        assert!(latencies[2] >= 3_540);
        // Ticket 3 was due 1 gap into the stall and left ~2.5 gaps late; a
        // send-time clock would have reported ~40 ns for it.
        assert!(latencies[3] >= 2_500, "{latencies:?}");
        assert!(latencies[4] >= 1_500);
        assert!(latencies[5] >= 500);
        // By ticket 6 the generator has caught up.
        assert!(latencies[7] < 100);
        assert!(stats.send_lag_ns[3] >= 2_400);
        assert_eq!(stats.late_sends, 2, "tickets 3 and 4 left over a gap late");
    }

    #[test]
    fn a_refused_ticket_is_counted_and_has_no_latency() {
        let clock = FakeClock {
            now: Cell::new(0),
            tick: 1,
        };
        let mut sink = FakeSink {
            clock: &clock,
            service_ns: 10,
            stall_at: None,
            stall_ns: 0,
            refuse: Some(1),
        };
        let stats = run_open_loop(&clock, &mut sink, 100, 4);
        assert_eq!((stats.sent, stats.refused), (4, 1));
        assert_eq!(stats.delivered.len(), 3);
    }
}
