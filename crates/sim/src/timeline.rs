//! Timeline rendering (Figure 1): an ASCII Gantt chart of a simulated
//! epoch's first milliseconds, one lane per resource server.

use crate::des::{Executed, Simulation};
use std::fmt::Write as _;

/// Renders the window `[0, horizon_ns)` of an executed schedule as an ASCII
/// Gantt chart with `width` columns.
///
/// Each resource server gets one lane; a task paints its lane with the first
/// letter of its label (`s`ample, `p`rep, `t`ransfer/`t`rain are
/// disambiguated by resource name).
pub fn render_text(sim: &Simulation, ex: &Executed, horizon_ns: u64, width: usize) -> String {
    let horizon = horizon_ns.max(1);
    let mut lanes: Vec<(String, Vec<char>)> = Vec::new();
    let mut lane_index: Vec<(usize, usize)> = Vec::new(); // (resource, server) -> lane
    for (rid, r) in sim.resources().iter().enumerate() {
        for s in 0..r.servers {
            lane_index.push((rid, s));
            let name = if r.servers == 1 {
                r.name.clone()
            } else {
                format!("{}.{s}", r.name)
            };
            lanes.push((name, vec!['.'; width]));
        }
    }
    #[expect(clippy::expect_used, reason = "lane_index has an entry for every (resource, server) pair of this simulation, and the simulation's own tasks are all it is asked about")]
    let lane_of = |rid: usize, srv: usize| -> usize {
        lane_index
            .iter()
            .position(|&(r, s)| r == rid && s == srv)
            .expect("lane exists")
    };
    for (tid, task) in sim.tasks().iter().enumerate() {
        let (s, e) = (ex.start[tid], ex.end[tid]);
        if s >= horizon {
            continue;
        }
        let c = task
            .label
            .chars()
            .next()
            .unwrap_or('#')
            .to_ascii_uppercase();
        let lane = lane_of(task.resource, ex.server[tid]);
        let from = (s as u128 * width as u128 / horizon as u128) as usize;
        let to = ((e.min(horizon) as u128 * width as u128).div_ceil(horizon as u128) as usize)
            .min(width);
        for cell in &mut lanes[lane].1[from..to.max(from + 1).min(width)] {
            *cell = c;
        }
    }
    let label_w = lanes.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:label_w$} |{}| 0 .. {:.2} ms",
        "resource",
        "-".repeat(width),
        horizon as f64 / 1e6
    );
    for (name, cells) in &lanes {
        let row: String = cells.iter().collect();
        let _ = writeln!(out, "{name:label_w$} |{row}|");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::Simulation;

    fn tiny() -> (Simulation, Executed) {
        let mut sim = Simulation::new();
        let cpu = sim.resource("cpu", 2);
        let gpu = sim.resource("gpu", 1);
        let a = sim.task("alpha", cpu, 100, vec![]);
        sim.task("beta", cpu, 100, vec![]);
        sim.task("gamma", gpu, 50, vec![a]);
        let ex = sim.run();
        (sim, ex)
    }

    #[test]
    fn gantt_has_one_lane_per_server() {
        let (sim, ex) = tiny();
        let text = render_text(&sim, &ex, 200, 40);
        let lanes: Vec<&str> = text.lines().collect();
        // Header + cpu.0 + cpu.1 + gpu.
        assert_eq!(lanes.len(), 4);
        assert!(lanes[1].starts_with("cpu.0"));
        assert!(lanes[3].starts_with("gpu"));
        assert!(text.contains('A'));
        assert!(text.contains('G'));
    }

    #[test]
    fn horizon_clips_late_tasks() {
        let (sim, ex) = tiny();
        // Horizon of 10 ns: gamma (starts at 100) must not appear.
        let text = render_text(&sim, &ex, 10, 20);
        assert!(!text.contains('G'));
    }
}
