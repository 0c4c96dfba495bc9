//! Workload catalogue: the metadata of Tables 2 and 3.

use serde::{Deserialize, Serialize};

use crate::spec::WorkloadKind;

/// One row of Table 2: a workload world and its properties.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldCatalogEntry {
    /// Which workload the world backs.
    pub kind: WorkloadKind,
    /// Property summary as given in Table 2.
    pub properties: &'static str,
    /// On-disk size of the original world download, in MB (Table 2).
    pub original_size_mb: f64,
}

/// Returns Table 2: the Minecraft worlds used as workload starting points.
#[must_use]
pub fn table2_worlds() -> Vec<WorldCatalogEntry> {
    vec![
        WorldCatalogEntry {
            kind: WorkloadKind::Control,
            properties: "Freshly generated world",
            original_size_mb: 5.4,
        },
        WorldCatalogEntry {
            kind: WorkloadKind::Tnt,
            properties: "Entity actions, terrain updates",
            original_size_mb: 6.3,
        },
        WorldCatalogEntry {
            kind: WorkloadKind::Farm,
            properties: "Resource Farm constructs",
            original_size_mb: 26.0,
        },
        WorldCatalogEntry {
            kind: WorkloadKind::Lag,
            properties: "Complex simulated construct, stress test",
            original_size_mb: 4.7,
        },
    ]
}

/// One row of Table 3: a simulated construct in the Farm world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FarmConstructEntry {
    /// Construct name.
    pub name: &'static str,
    /// How many copies the Farm world contains.
    pub amount: u32,
    /// The community author credited in the paper.
    pub author: &'static str,
    /// Popularity of the design, in millions of video views.
    pub popularity_million_views: f64,
}

/// Returns Table 3: the simulated constructs in the Farm world.
#[must_use]
pub fn table3_constructs() -> Vec<FarmConstructEntry> {
    vec![
        FarmConstructEntry {
            name: "Entity Farm",
            amount: 12,
            author: "gnembon",
            popularity_million_views: 1.7,
        },
        FarmConstructEntry {
            name: "Stone Farm",
            amount: 4,
            author: "Shulkercraft",
            popularity_million_views: 1.3,
        },
        FarmConstructEntry {
            name: "Kelp Farm",
            amount: 4,
            author: "Mumbo Jumbo",
            popularity_million_views: 2.5,
        },
        FarmConstructEntry {
            name: "Item Sorter",
            amount: 1,
            author: "Mysticat",
            popularity_million_views: 0.8,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{farm, spec::WorkloadSpec};

    #[test]
    fn table2_lists_the_four_environment_worlds() {
        let worlds = table2_worlds();
        assert_eq!(worlds.len(), 4);
        // Every environment-based workload: all but the player-based one.
        let kinds: Vec<_> = worlds.iter().map(|w| w.kind).collect();
        for kind in WorkloadKind::all() {
            assert_eq!(
                kinds.contains(&kind),
                kind != WorkloadKind::Players,
                "{kind}"
            );
        }
    }

    #[test]
    fn table3_matches_the_built_farm_world() {
        let constructs = table3_constructs();
        let by_name = |name: &str| constructs.iter().find(|c| c.name == name).unwrap().amount;
        assert_eq!(by_name("Entity Farm"), farm::ENTITY_FARMS);
        assert_eq!(by_name("Stone Farm"), farm::STONE_FARMS);
        assert_eq!(by_name("Kelp Farm"), farm::KELP_FARMS);
        assert_eq!(by_name("Item Sorter"), farm::ITEM_SORTERS);
    }

    #[test]
    fn average_popularity_matches_the_paper_claim() {
        // "each have 1.6 million views on average"
        let constructs = table3_constructs();
        let mean: f64 = constructs
            .iter()
            .map(|c| c.popularity_million_views)
            .sum::<f64>()
            / constructs.len() as f64;
        assert!((mean - 1.575).abs() < 0.1);
    }

    #[test]
    fn every_catalogued_world_can_be_built() {
        for entry in table2_worlds() {
            let built = WorkloadSpec::new(entry.kind).build(9);
            assert_eq!(built.kind, entry.kind);
        }
    }
}
