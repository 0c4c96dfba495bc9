//! Entity substrate for the Meterstick MLG simulator.
//!
//! "An entity is an object that exists in the virtual world but is not a
//! player or terrain" (Section 2.2.3 of the Meterstick paper). This crate
//! implements entities and the two aspects the paper identifies as uniquely
//! challenging for MLGs:
//!
//! * **dynamic spawning** — spawn points must be computed at runtime because
//!   terrain modification can obstruct them ([`spawning`]);
//! * **dynamic pathfinding** — NPC path-finding graphs cannot be precomputed
//!   because the terrain changes ([`pathfinding`]).
//!
//! It also implements the entity kinds the benchmark workloads rely on:
//! primed TNT with chain-reaction explosions ([`tnt`]), item entities with
//! merging and hopper collection ([`items`]), and mobile NPCs with simple
//! decision making ([`ai`]). The [`manager::EntityManager`] drives one entity
//! simulation stage per game tick and reports the work performed, which the
//! paper's MF4 finding shows dominates tick time.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ai;
pub mod entity;
pub mod items;
pub mod manager;
pub mod math;
pub mod pathfinding;
pub mod physics;
pub mod spatial;
pub mod spawning;
mod store;
pub mod tnt;

pub use entity::{Entity, EntityId, EntityKind};
pub use manager::{EntityManager, EntityTickReport};
pub use math::{Aabb, Vec3};
pub use spatial::SpatialGrid;
