//! Umbrella crate for workspace-level examples and integration tests of the
//! Meterstick reproduction. Re-exports nothing; the examples and integration
//! tests under `examples/` and `tests/` depend on the member crates directly.
//!
//! # Where to start
//!
//! For the system-wide map — the campaign layer, the tick stage graph and
//! its determinism contract, the quadtree rebalancer, the stage-Amdahl
//! cost model (`mlg-server/src/cost.rs`) and the persistent tick worker
//! pool — read the architecture book at `docs/ARCHITECTURE.md` in the
//! repository root, then drill into the per-crate rustdoc it links.
//!
//! The benchmark is driven through the **`Campaign` API** in the
//! `meterstick` crate (`crates/core`): a campaign declares a full factorial
//! sweep — workloads × server flavors × environments (including AWS node
//! sizes) × iterations — expands it into independent, seeded iteration
//! jobs, runs them on a pluggable executor (sequential, or thread-based
//! parallel with bit-identical results), and streams each result into
//! attached `ResultSink`s as it completes:
//!
//! ```text
//! Campaign::new()
//!     .workloads([WorkloadKind::Control, WorkloadKind::Farm])
//!     .flavors(ServerFlavor::all())
//!     .environments([Environment::aws_default(), Environment::das5(2)])
//!     .iterations(5)
//!     .run()?;                       // -> Result<CampaignResults, BenchmarkError>
//! ```
//!
//! * `examples/quickstart.rs` — a small campaign end to end;
//! * `examples/cloud_comparison.rs`, `examples/node_sizing.rs` — sweeps
//!   over environments and node sizes;
//! * `examples/farm_stress.rs` — the lower-level substrate API without the
//!   campaign layer;
//! * `meterstick-bench <name>` — every figure/table of the paper behind
//!   one binary, one module each under `crates/bench/src/figures/`, all
//!   built on campaigns (`--sequential`, `--progress`, `--csv PATH` flags
//!   select executor and streaming sinks);
//! * `tests/end_to_end.rs` — the paper's main findings (MF1–MF5) checked
//!   against the simulation.
//!
//! The game server itself runs a **stage-parallel tick graph** over a
//! sharded tick pipeline: loaded chunks are partitioned into spatial
//! shards, and every stage of the tick — player handler, terrain,
//! entities, dissemination — declares shard-parallel work (batched by
//! owning shard, fanned over the server's **persistent tick worker
//! pool** — `mlg_world::pool` — whose parked workers outlive the tick, so
//! no phase pays thread spawn/join) plus a serial
//! escalation tail (boundary chunks, cross-shard player actions), with
//! results merged in canonical shard order, so output is bit-identical at
//! any `tick_threads` setting (campaigns can sweep that axis). Lighting
//! is either eager (vanilla, relit inside the terrain stage) or
//! **cross-tick pipelined** (Paper/Folia): a tick's relight set queues up
//! and is consumed over a frozen snapshot while the next tick's player
//! stage runs — swept through the campaign `eager_lighting` axis. Two
//! partitions exist: static 4-chunk x-stripes, and an **adaptive 2D
//! region quadtree** that splits hot regions and merges cold ones between
//! ticks based on the previous tick's merged load report — terrain,
//! entity AND player-stage loads — (split above 2× the mean shard load,
//! merge below ½× — a hysteresis band that prevents oscillation;
//! decisions are a pure function of the report, so the partition evolves
//! identically at any thread count). The Folia-like `ServerFlavor::Folia`
//! turns the sharded architecture on *and* rebalances; the paper's
//! flavors stay serial, preserving MF2's Lag-workload crash. Campaigns
//! sweep the architecture through the `shard_rebalance` axis (seed-paired
//! with the static partition). The cost model folds one `StageWork`
//! record per stage — per-stage parallel fractions, widths and
//! busiest-shard floors — into an Amdahl critical path; that is how vCPU
//! count affects tick busy time, why rebalancing lets added cores absorb
//! clustered hotspots, and where the per-stage `stage_*_ms` CSV columns
//! come from. The player-heavy `WorkloadKind::Crowd` (220 clustered bots
//! walking and editing terrain; in `extended()`, not the paper's `all()`)
//! exists to load the player-handler and dissemination stages the way TNT
//! loads entities.
//!
//! The determinism contract the tick graph rests on — no hash-order
//! iteration on the tick path, no wall-clock reads in modeled time, no
//! ambient RNG, no `unsafe`, no bare thread spawns, no debug prints in
//! library crates — is **machine-checked** by the `detlint` crate
//! (`cargo run -p detlint -- --workspace`); the rules, their rationale
//! and the inline-waiver syntax are documented in `docs/ARCHITECTURE.md`
//! under "Machine-checked determinism contract".

#![forbid(unsafe_code)]
