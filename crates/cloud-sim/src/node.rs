//! Node (virtual machine / physical host) types.

use serde::{Deserialize, Serialize};

/// A compute node: the hardware (or virtual hardware) an MLG server runs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeType {
    /// Human-readable name, e.g. `"t3.large"`.
    pub name: String,
    /// Number of virtual CPUs available to the server process.
    pub vcpus: u32,
    /// Clock speed in GHz (sustained, not burst).
    clock_ghz: f64,
    /// Memory in GiB.
    memory_gb: f64,
    /// Whether the node uses burstable CPU credits (AWS T3 family).
    pub burstable: bool,
    /// For burstable nodes: the baseline CPU fraction per vCPU that can be
    /// sustained without spending credits (e.g. 0.3 = 30% for t3.large).
    pub baseline_cpu_fraction: f64,
}

impl NodeType {
    /// AWS `t3.large`: 2 vCPU, 8 GiB, burstable with a 30% baseline.
    ///
    /// This is the node the paper labels `L`, and the size most hosting
    /// providers recommend (Table 7).
    #[must_use]
    pub fn aws_t3_large() -> Self {
        NodeType {
            name: "t3.large".into(),
            vcpus: 2,
            clock_ghz: 2.5,
            memory_gb: 8.0,
            burstable: true,
            baseline_cpu_fraction: 0.30,
        }
    }

    /// AWS `t3.xlarge`: 4 vCPU, 16 GiB, burstable with a 40% baseline
    /// (the paper's `XL` node in Figure 12).
    #[must_use]
    pub fn aws_t3_xlarge() -> Self {
        NodeType {
            name: "t3.xlarge".into(),
            vcpus: 4,
            clock_ghz: 2.5,
            memory_gb: 16.0,
            burstable: true,
            baseline_cpu_fraction: 0.40,
        }
    }

    /// AWS `t3.2xlarge`: 8 vCPU, 32 GiB, burstable with a 40% baseline
    /// (the paper's `2XL` node in Figure 12).
    #[must_use]
    pub fn aws_t3_2xlarge() -> Self {
        NodeType {
            name: "t3.2xlarge".into(),
            vcpus: 8,
            clock_ghz: 2.5,
            memory_gb: 32.0,
            burstable: true,
            baseline_cpu_fraction: 0.40,
        }
    }

    /// Azure `Standard_D2_v3`: 2 vCPU, 8 GiB, non-burstable.
    #[must_use]
    pub fn azure_d2_v3() -> Self {
        NodeType {
            name: "Standard_D2_v3".into(),
            vcpus: 2,
            clock_ghz: 2.4,
            memory_gb: 8.0,
            burstable: false,
            baseline_cpu_fraction: 1.0,
        }
    }

    /// A DAS-5 node restricted to `cores` CPU cores via CPU affinity, as the
    /// paper does ("limit the number of CPU cores available to the MLG by
    /// setting its CPU affinity to two cores").
    #[must_use]
    pub fn das5(cores: u32) -> Self {
        NodeType {
            name: format!("das5-{cores}core"),
            vcpus: cores,
            clock_ghz: 2.4,
            memory_gb: 64.0,
            burstable: false,
            baseline_cpu_fraction: 1.0,
        }
    }

    /// Work units one core retires per millisecond, before interference.
    ///
    /// The constant is the calibration knob tying the abstract work-unit
    /// scale of the game-server substrate to wall-clock milliseconds; it is
    /// chosen so that the Control workload runs comfortably under the 50 ms
    /// tick budget on a 2-vCPU node while the Farm/TNT/Lag workloads overload
    /// it, matching the paper's qualitative results.
    #[must_use]
    pub fn work_units_per_core_ms(&self) -> f64 {
        self.clock_ghz * 2_400.0
    }
}

impl std::fmt::Display for NodeType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} vCPU, {:.1} GHz, {:.0} GiB)",
            self.name, self.vcpus, self.clock_ghz, self.memory_gb
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aws_node_family_scales_vcpus() {
        let l = NodeType::aws_t3_large();
        let xl = NodeType::aws_t3_xlarge();
        let xxl = NodeType::aws_t3_2xlarge();
        assert_eq!(l.vcpus, 2);
        assert_eq!(xl.vcpus, 4);
        assert_eq!(xxl.vcpus, 8);
        assert!(l.burstable && xl.burstable && xxl.burstable);
    }

    #[test]
    fn das5_is_not_burstable() {
        let n = NodeType::das5(2);
        assert!(!n.burstable);
        assert_eq!(n.vcpus, 2);
        assert_eq!(n.baseline_cpu_fraction, 1.0);
        assert_eq!(NodeType::das5(16).vcpus, 16);
    }

    #[test]
    fn throughput_scales_with_clock() {
        let slow = NodeType {
            clock_ghz: 1.0,
            ..NodeType::das5(2)
        };
        let fast = NodeType {
            clock_ghz: 3.0,
            ..NodeType::das5(2)
        };
        assert!(fast.work_units_per_core_ms() > 2.9 * slow.work_units_per_core_ms());
    }

    #[test]
    fn display_mentions_the_name() {
        let n = NodeType::azure_d2_v3();
        assert!(n.to_string().contains("Standard_D2_v3"));
    }
}
