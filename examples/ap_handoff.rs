//! Hint-aware access point policies (Sec. 5.2).
//!
//! Three mini-demos: association by predicted lifetime, mobile-favouring
//! scheduling, and the Fig. 5-1 disassociation pathology with its fix.
//!
//! ```text
//! cargo run --release --example ap_handoff
//! ```

use sensor_hints::ap::association::{best_ap, predicted_dwell_s, ApCandidate, ClientMotion};
use sensor_hints::ap::disassociation::{fig_5_1_scenario, DisassociationPolicy, FairnessModel};
use sensor_hints::ap::scheduler::{simulate_two_client_schedule, SchedulePolicy};
use sensor_hints::mac::BitRate;
use sensor_hints::sensors::gps::Position;
use sensor_hints::sim::SimDuration;

fn main() {
    // --- 1. Adaptive association -----------------------------------------
    println!("1) Association: walking east past AP A toward AP B");
    let behind = ApCandidate {
        id: 0,
        position: Position { x: -20.0, y: 0.0 },
        rssi_dbm: -45.0,
        coverage_m: 100.0,
    };
    let ahead = ApCandidate {
        id: 1,
        position: Position { x: 80.0, y: 0.0 },
        rssi_dbm: -55.0,
        coverage_m: 100.0,
    };
    let client = ClientMotion {
        position: Position { x: 0.0, y: 0.0 },
        moving: true,
        heading_deg: 90.0,
        speed_mps: 1.4,
    };
    let dwell = |ap: &ApCandidate| predicted_dwell_s(ap, &client);
    for (name, best) in [
        (
            "strongest-signal",
            best_ap(&[behind, ahead], |ap| ap.rssi_dbm),
        ),
        ("hint-aware      ", best_ap(&[behind, ahead], dwell)),
    ] {
        let (pick, _) = best.expect("an AP");
        let ap = if pick == 0 { &behind } else { &ahead };
        println!(
            "   {name} picks AP {pick} ({} dBm) -> association lasts {:.0} s",
            ap.rssi_dbm,
            dwell(ap)
        );
    }

    // --- 2. Adaptive scheduling ------------------------------------------
    println!();
    println!("2) Scheduling: static client with a finite batch + 10 s mobile visitor");
    for (policy, name) in [
        (SchedulePolicy::EqualShare, "equal share     "),
        (
            SchedulePolicy::FavorMobile { mobile_share: 0.9 },
            "favor mobile 90%",
        ),
    ] {
        let out = simulate_two_client_schedule(policy, BitRate::R54, 20_000, 10.0, 60.0);
        println!(
            "   {name}: aggregate {} pkts (mobile {}, static batch done at {:.1} s)",
            out.aggregate(),
            out.mobile_delivered,
            out.static_finish_s
        );
    }

    // --- 3. Adaptive disassociation (Fig. 5-1) ----------------------------
    println!();
    println!("3) Disassociation: client departs at 35 s (static client's goodput)");
    let timeout = DisassociationPolicy::Timeout {
        prune_after: SimDuration::from_secs(10),
    };
    let hint = DisassociationPolicy::HintAware {
        probe_interval: SimDuration::from_secs(1),
    };
    let frame = fig_5_1_scenario(timeout, FairnessModel::FrameLevel);
    let fixed = fig_5_1_scenario(hint, FairnessModel::FrameLevel);
    println!(
        "   10 s-timeout AP : before {:.1} Mbps, collapse window {:.1} Mbps, after {:.1} Mbps",
        frame.mean_goodput_mbps(0, 5, 30),
        frame.mean_goodput_mbps(0, 36, 44),
        frame.mean_goodput_mbps(0, 48, 60),
    );
    println!(
        "   hint-aware AP   : before {:.1} Mbps, same window  {:.1} Mbps (no collapse)",
        fixed.mean_goodput_mbps(0, 5, 30),
        fixed.mean_goodput_mbps(0, 36, 44),
    );
}
