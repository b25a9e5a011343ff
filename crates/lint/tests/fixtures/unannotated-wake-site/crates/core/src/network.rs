//! Fixture: `unannotated-wake-site` — wake-up calls and calendar
//! filings in the gated engine fire unless an `// INVARIANT:` comment
//! states the wake rule.

pub fn bare_wake(active: &mut [bool], node: usize) {
    wake_router(active, node); // FINDING: line 6
}

pub fn bare_filing(line: &mut Calendar, ci: usize, now: u64) {
    if ci < line.len() {
        line.schedule(ci, now + 1, now, 7); // FINDING: line 11
    }
}

pub fn annotated_wake(active: &mut [bool], node: usize) {
    // INVARIANT: wake — the receive above gave the router work.
    wake_router(active, node);
}

pub fn annotated_filing(line: &mut Calendar, node: usize, now: u64) {
    // INVARIANT: wake-rule (pipes) — one flit per node per cycle, so the
    // cell is free; the annotation reaches through a short statement run.
    let due = now + 2;
    line.schedule(2 * node, due, now, 7);
}

// INVARIANT: wake-rule (routers) — definition site; the set bit is
// cleared only at a proven-quiescent router.
fn wake_router(active: &mut [bool], node: usize) {
    active[node] = true;
}

pub struct Calendar(Vec<u64>);

impl Calendar {
    fn len(&self) -> usize {
        self.0.len()
    }

    // INVARIANT: wake-rule (channels) — definition site.
    fn schedule(&mut self, i: usize, due: u64, _now: u64, _value: u8) {
        self.0[i] = due;
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_wake_and_file_bare() {
        let mut active = [false; 4];
        super::wake_router(&mut active, 1);
        let mut line = super::Calendar(vec![0; 4]);
        line.schedule(1, 3, 2, 0);
        assert!(active[1]);
    }
}
