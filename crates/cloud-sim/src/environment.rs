//! Named deployment environments: AWS, Azure and the self-hosted DAS-5.

use serde::{Deserialize, Serialize};

use crate::engine::ComputeEngine;
use crate::interference::{InterferenceProfile, InterferenceState};
use crate::node::NodeType;
use crate::temporal::{StartTime, TemporalProfile};

/// The hosting provider an environment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Provider {
    /// Amazon Web Services (EC2 T3 instances in the paper).
    Aws,
    /// Microsoft Azure (Dv3 instances in the paper).
    Azure,
    /// The DAS-5 compute cluster (self-hosted / dedicated hardware).
    Das5,
}

impl std::fmt::Display for Provider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Provider::Aws => "AWS",
            Provider::Azure => "Azure",
            Provider::Das5 => "DAS-5",
        };
        f.write_str(name)
    }
}

/// A deployment environment: a provider, a node type and an interference
/// profile. Environments are templates; call [`Environment::instantiate`]
/// once per benchmark iteration to sample a concrete
/// [`EnvironmentInstance`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// Which provider this environment models.
    pub provider: Provider,
    /// Node size the server runs on.
    pub node: NodeType,
    /// Interference behaviour.
    pub profile: InterferenceProfile,
    /// Diurnal + day-of-week tenancy curve. Flat by default on every preset
    /// — stationary campaigns stay byte-identical — and opted into via
    /// [`Environment::with_temporal`] or [`Environment::aws_diurnal`].
    pub temporal: TemporalProfile,
}

impl Environment {
    /// AWS environment on the given node size (default `t3.large`, the
    /// paper's `L` node).
    #[must_use]
    pub fn aws(node: NodeType) -> Self {
        Environment {
            provider: Provider::Aws,
            node,
            profile: InterferenceProfile::aws(),
            temporal: TemporalProfile::flat(),
        }
    }

    /// AWS on the default recommended node (`t3.large`).
    #[must_use]
    pub fn aws_default() -> Self {
        Environment::aws(NodeType::aws_t3_large())
    }

    /// AWS with the non-stationary consumer-gaming tenancy curve
    /// ([`TemporalProfile::aws`]): use with a `start_time` sweep.
    #[must_use]
    pub fn aws_diurnal(node: NodeType) -> Self {
        Environment::aws(node).with_temporal(TemporalProfile::aws())
    }

    /// Azure environment on `Standard_D2_v3`.
    #[must_use]
    pub fn azure_default() -> Self {
        Environment {
            provider: Provider::Azure,
            node: NodeType::azure_d2_v3(),
            profile: InterferenceProfile::azure(),
            temporal: TemporalProfile::flat(),
        }
    }

    /// Self-hosted DAS-5 environment restricted to `cores` cores.
    #[must_use]
    pub fn das5(cores: u32) -> Self {
        Environment {
            provider: Provider::Das5,
            node: NodeType::das5(cores),
            profile: InterferenceProfile::dedicated(),
            temporal: TemporalProfile::flat(),
        }
    }

    /// Replaces the tenancy curve (builder style).
    #[must_use]
    pub fn with_temporal(mut self, temporal: TemporalProfile) -> Self {
        self.temporal = temporal;
        self
    }

    /// A short label such as `"AWS 2-core"` used in figures.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} {}-core", self.provider, self.node.vcpus)
    }

    /// Samples a concrete environment instance for one iteration, starting
    /// at the default start time (Monday 00:00).
    ///
    /// Each iteration gets fresh placement/interference randomness derived
    /// from `seed`, which is how the inter-iteration variability of Figure 10
    /// arises.
    #[must_use]
    pub fn instantiate(&self, seed: u64) -> EnvironmentInstance {
        self.instantiate_at(seed, StartTime::default())
    }

    /// [`Environment::instantiate`] at an explicit point of the simulated
    /// week. Under a flat tenancy curve the start time has no effect; under
    /// a diurnal curve it selects the intensity level the iteration runs at.
    #[must_use]
    pub fn instantiate_at(&self, seed: u64, start: StartTime) -> EnvironmentInstance {
        let interference = InterferenceState::with_temporal(
            self.profile.clone(),
            self.temporal.clone(),
            start,
            seed,
        );
        EnvironmentInstance {
            engine: ComputeEngine::new(self.node.clone(), interference),
            provider: self.provider,
        }
    }
}

/// One iteration's concrete environment: a compute engine with sampled
/// interference, owned by the experiment runner.
#[derive(Debug)]
pub struct EnvironmentInstance {
    /// The compute engine converting work into tick durations.
    pub engine: ComputeEngine,
    /// The provider this instance belongs to.
    pub provider: Provider,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute_one, StageWork};

    #[test]
    fn presets_have_expected_nodes() {
        assert_eq!(Environment::aws_default().node.name, "t3.large");
        assert_eq!(Environment::azure_default().node.vcpus, 2);
        assert_eq!(Environment::das5(16).node.vcpus, 16);
        assert_eq!(Environment::das5(2).provider, Provider::Das5);
    }

    #[test]
    fn labels_are_readable() {
        assert_eq!(Environment::aws_default().label(), "AWS 2-core");
        assert_eq!(Environment::das5(16).label(), "DAS-5 16-core");
    }

    #[test]
    fn instances_differ_between_iterations_on_clouds() {
        let env = Environment::aws_default();
        let mut a = env.instantiate(1);
        let mut b = env.instantiate(2);
        let work = StageWork::serial(60_000);
        let ta: f64 = (0..200)
            .map(|_| execute_one(&mut a.engine, work, 0).busy_ms)
            .sum();
        let tb: f64 = (0..200)
            .map(|_| execute_one(&mut b.engine, work, 0).busy_ms)
            .sum();
        assert!(
            (ta - tb).abs() > 1e-6,
            "different seeds should give different totals"
        );
    }

    #[test]
    fn das5_iterations_are_nearly_identical() {
        let env = Environment::das5(2);
        let work = StageWork::serial(60_000);
        let mut totals = Vec::new();
        for seed in 0..5 {
            let mut inst = env.instantiate(seed);
            let total: f64 = (0..200)
                .map(|_| execute_one(&mut inst.engine, work, 0).busy_ms)
                .sum();
            totals.push(total);
        }
        let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = totals.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min < 1.1,
            "self-hosted iterations should be stable ({min}..{max})"
        );
    }

    #[test]
    fn cloud_iterations_spread_more_than_das5() {
        let work = StageWork::serial(80_000);
        let spread = |env: &Environment| {
            let mut totals = Vec::new();
            for seed in 0..10 {
                let mut inst = env.instantiate(seed * 7 + 1);
                let total: f64 = (0..300)
                    .map(|_| execute_one(&mut inst.engine, work, 0).busy_ms)
                    .sum();
                totals.push(total);
            }
            let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = totals.iter().cloned().fold(0.0, f64::max);
            max - min
        };
        let das = spread(&Environment::das5(2));
        let aws = spread(&Environment::aws_default());
        assert!(
            aws > das * 2.0,
            "AWS spread ({aws}) should exceed DAS-5 spread ({das})"
        );
    }

    #[test]
    fn provider_display() {
        assert_eq!(Provider::Aws.to_string(), "AWS");
        assert_eq!(Provider::Azure.to_string(), "Azure");
        assert_eq!(Provider::Das5.to_string(), "DAS-5");
    }
}
