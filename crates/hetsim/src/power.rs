//! Power and energy measurement (§III-D of the paper).
//!
//! The paper measures "the average power consumption during the mapping
//! process and subtract[s] it with the idle power", then multiplies by the
//! mapping time to obtain energy: `E = (P − P_idle) × T`. The simulator
//! reproduces the same arithmetic from the device side: during a run of
//! duration `T` (the bottleneck device's time), device `d` is busy for its
//! own simulated time `t_d` drawing its active power `P_d`, so the
//! above-idle energy is `E = Σ_d P_d × t_d` and the meter would read
//! `P = P_idle + E / T` on average. Substituting one into the other gives
//! back the paper's formula exactly — `(P − P_idle) × T = E` — an identity
//! the tests assert.

use crate::platform::{DeviceRun, Platform};

/// A §III-D style power/energy measurement of one mapping run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Mapping time in seconds (simulated completion time).
    pub mapping_seconds: f64,
    /// Average total power at the wall during mapping, in watts
    /// (idle + busy devices), the paper's `P(W)` column:
    /// `P = P_idle + Σ_d P_d × t_d / T`.
    pub average_power_w: f64,
    /// Energy above idle over the mapping, in joules — the paper's `E(J)`
    /// column. Computed as busy-device energy `Σ_d P_d × t_d`, which by
    /// construction equals `(average_power_w − P_idle) × mapping_seconds`.
    pub energy_j: f64,
}

impl EnergyReport {
    /// Measures a finished run on its platform: `device_runs` is what
    /// each device did, named by index, `simulated_seconds` the run's
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics if a device run names a device the platform does not hold.
    pub fn measure(
        platform: &Platform,
        device_runs: &[DeviceRun],
        simulated_seconds: f64,
    ) -> EnergyReport {
        let t = simulated_seconds;
        if t <= 0.0 {
            return EnergyReport {
                mapping_seconds: 0.0,
                average_power_w: platform.idle_power_w(),
                energy_j: 0.0,
            };
        }
        // Busy-time-weighted active power.
        let active_energy: f64 = device_runs
            .iter()
            .map(|r| {
                let device = platform.device(r.device).unwrap_or_else(|| {
                    panic!(
                        "device run names device {} the platform does not hold",
                        r.device
                    )
                });
                device.active_power_w() * r.simulated_seconds
            })
            .sum();
        let average_power_w = platform.idle_power_w() + active_energy / t;
        EnergyReport {
            mapping_seconds: t,
            average_power_w,
            energy_j: active_energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Share;
    use crate::profiles;

    /// Measures the run in which each share's device works through its
    /// contiguous items (`work_of_item(i)` units for global item `i`) and
    /// the slowest device sets the completion time.
    fn measure(
        platform: &Platform,
        shares: &[Share],
        work_of_item: impl Fn(usize) -> u64,
    ) -> EnergyReport {
        let mut next = 0usize;
        let runs: Vec<DeviceRun> = shares
            .iter()
            .map(|share| {
                let work: u64 = (next..next + share.items).map(&work_of_item).sum();
                next += share.items;
                DeviceRun {
                    device: share.device,
                    items: share.items,
                    work,
                    simulated_seconds: platform.device(share.device).unwrap().seconds_for(work),
                }
            })
            .collect();
        let bottleneck = runs
            .iter()
            .map(|r| r.simulated_seconds)
            .fold(0.0f64, f64::max);
        platform.measure_energy(&runs, bottleneck)
    }

    fn share(device: usize, items: usize) -> Share {
        Share { device, items }
    }

    #[test]
    fn cpu_only_power_matches_table_iv_row() {
        let platform = profiles::system1();
        let report = measure(&platform, &platform.single_device_share(0, 100), |_| {
            1_000_000
        });
        // CPU fully busy for the whole run: P = 160 + 194 = 354 W.
        assert!((report.average_power_w - 354.0).abs() < 1e-6);
        assert!(
            (report.energy_j - 194.0 * report.mapping_seconds).abs() < 1e-9,
            "E = (P - idle) × T"
        );
    }

    #[test]
    fn heterogeneous_run_draws_more_power_but_can_use_less_energy() {
        let platform = profiles::system1();
        let e_cpu = measure(&platform, &platform.single_device_share(0, 200), |_| {
            1_000_000
        });
        let shares = [share(0, 100), share(1, 50), share(2, 50)];
        let e_all = measure(&platform, &shares, |_| 1_000_000);
        // The §IV observation: REPUTE-all "uses more power but less
        // energy and is faster".
        assert!(e_all.average_power_w > e_cpu.average_power_w);
        assert!(e_all.mapping_seconds < e_cpu.mapping_seconds);
    }

    #[test]
    fn embedded_platform_is_far_more_energy_efficient() {
        let workstation = profiles::system1_cpu_only();
        let hikey = profiles::system2_hikey970();
        let w = measure(
            &workstation,
            &workstation.single_device_share(0, 100),
            |_| 10_000_000,
        );
        let h = measure(&hikey, &hikey.even_shares(100), |_| 10_000_000);
        // The paper's headline: an order of magnitude or more energy
        // saving on the embedded SoC despite longer mapping time.
        assert!(h.mapping_seconds > w.mapping_seconds);
        assert!(
            w.energy_j / h.energy_j > 10.0,
            "ratio {}",
            w.energy_j / h.energy_j
        );
    }

    #[test]
    fn energy_identity_holds_on_heterogeneous_runs() {
        // §III-D identity: E(J) == (P(W) − P_idle) × T(s), for any
        // distribution, including ones that leave devices partly idle.
        for (platform, shares) in [
            (
                profiles::system1(),
                vec![share(0, 37), share(1, 11), share(2, 52)],
            ),
            (
                profiles::system2_hikey970(),
                vec![share(0, 80), share(1, 20)],
            ),
        ] {
            let report = measure(&platform, &shares, |i| 1_000_000 + 10_000 * i as u64);
            let from_power =
                (report.average_power_w - platform.idle_power_w()) * report.mapping_seconds;
            assert!(
                (report.energy_j - from_power).abs() <= 1e-9 * report.energy_j.max(1.0),
                "{}: energy_j {} != (P - P_idle) x T {}",
                platform.name(),
                report.energy_j,
                from_power
            );
        }
    }

    #[test]
    fn empty_run_reports_idle() {
        let platform = profiles::system2_hikey970();
        let report = measure(&platform, &platform.even_shares(0), |_| 0);
        assert_eq!(report.energy_j, 0.0);
        assert_eq!(report.average_power_w, 3.5);
    }
}
