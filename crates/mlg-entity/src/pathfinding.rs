//! A* pathfinding over modifiable terrain.
//!
//! "Static worlds pre-compute overlay graphs with viable NPC locations,
//! improving computational efficiency. In contrast, MLGs have changing
//! terrain, so they must compute path-finding graphs dynamically, leading to
//! additional compute-intensive workload." (Section 2.2.3.)
//!
//! The implementation searches directly over walkable block positions — a
//! position is walkable when it has solid ground below and two blocks of
//! head-room — so every search automatically reflects the current terrain.
//! The number of expanded nodes is reported so the entity stage can account
//! for the cost.
//!
//! # Substrate: one reusable node table, no hashing allocator traffic
//!
//! The dynamic search is modeled work; how the host stores its frontier is
//! not. A search runs on a [`PathScratch`] its caller keeps across searches
//! (the entity manager for the serial tick, each shard task for the sharded
//! one): an arena of 16-byte nodes, an open-addressed position index over
//! it (stamped with a per-search epoch, so starting a search clears
//! nothing) and the open heap's buffer. In steady state a search allocates
//! nothing but the [`PathResult::path`] it returns on success —
//! [`next_step_with`], which is what mob AI calls, not even that: it walks
//! the route back to its first step and returns the position. Each node
//! carries its walkability verdict, so [`is_walkable`] runs once per
//! position per search instead of once per parent that reaches it.
//!
//! The result is **bit-identical by construction** to the textbook
//! formulation with two hash maps and a `(f, counter, position)` heap (kept
//! under `#[cfg(test)]` as the oracle the property tests compare against):
//!
//! * heap keys pack `(f << 32) | counter` and `counter` is unique per push,
//!   so pop order is the `(f, counter)` order it always was and the node
//!   beside the key never takes part in a comparison;
//! * there is no closed set: a stale heap entry is still popped, still
//!   counted in `nodes_expanded` and still expanded — with the node's
//!   *latest* `g`, exactly as a map lookup at pop time gave it;
//! * `nodes_expanded` still reads `max_nodes + 1` when the budget runs out;
//! * a walkability test reads one column (ground, feet, head), so a repeat
//!   of it can neither see a different answer nor generate a chunk the
//!   first did not; the *first* test of every position happens at the same
//!   point of the same expansion as before, so lazy chunk generation
//!   (`chunks_generated_this_tick`, store insertion order) is untouched.
//!
//! # One search per question
//!
//! A mob asks for its route every tick, but it crosses a block boundary
//! only every dozen ticks and the terrain around it rarely changes, so most
//! ticks ask what the previous tick asked. [`next_step_with`] keeps its
//! answers in the scratch — a direct-mapped table of 256 entries keyed by
//! the question `(from, to, max_nodes)` and the
//! [`BlockReader::terrain_epoch`] it was answered under — and serves a
//! repeat from there. The scratch still carries no state that can be
//! *observed* from one search to the next, because a remembered answer is
//! the answer a search run now would give, side effects included:
//!
//! * the answer — both ends resolved to standable blocks, then the search
//!   above — is a pure function of the question and of the blocks it reads,
//!   and equal epochs mean every block reads as it did (the epoch moves on
//!   every changed block value and every inserted chunk, and says which
//!   kind of reader was asked, since a lazy and a frozen reader disagree
//!   about unloaded chunks);
//! * a repeat would generate nothing either: the first search left every
//!   chunk it read loaded, and chunks are never unloaded;
//! * which is also why the answer is filed under the epoch read *after* the
//!   search: a search through a lazy reader may generate chunks, and the
//!   terrain it ended on — the one a repeat starts from — is the terrain
//!   the answer is true of. Filed under the epoch it started from, it
//!   would be dead on arrival.
//!
//! A reader without an epoch ([`BlockReader::terrain_epoch`] is `None` by
//! default) is searched every time. The table is only ever probed at one
//! index, and a question that lands on an occupied entry replaces it, so
//! neither its order nor its history shows. Epochs of two worlds cannot be
//! compared, so a scratch stays with the world it was first used on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};

use mlg_world::pos::PosHasher;
use mlg_world::{BlockPos, BlockReader};

/// Result of a pathfinding request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathResult {
    /// The path from (exclusive) start to (inclusive) goal, empty when no
    /// path was found.
    pub path: Vec<BlockPos>,
    /// Number of nodes expanded by the search.
    pub nodes_expanded: u32,
    /// Whether the goal was reached.
    pub reached_goal: bool,
}

/// Returns `true` if a mob can stand at `pos`: solid ground below, and the
/// position itself plus head-room above are passable.
#[must_use]
pub fn is_walkable<W: BlockReader>(world: &mut W, pos: BlockPos) -> bool {
    let ground = world.block(pos.down());
    let feet = world.block(pos);
    let head = world.block(pos.up());
    ground.is_solid() && !feet.is_solid() && !head.is_solid()
}

/// The twelve moves of a walking mob, in expansion order: the four
/// horizontal steps, then each of them one block up, then one block down.
const MOVES: [(i32, i32, i32); 12] = [
    (1, 0, 0),
    (-1, 0, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (-1, 1, 0),
    (0, 1, 1),
    (0, 1, -1),
    (1, -1, 0),
    (-1, -1, 0),
    (0, -1, 1),
    (0, -1, -1),
];

/// One position a search has seen, 16 bytes: where it is, and in `state`
/// its walkability verdict (bits 0–1), the [`MOVES`] index that reached it
/// on the best route so far (bits 2–5) and that route's length `g`
/// (bits 6–31). The predecessor is recovered by undoing the move, which is
/// what keeps a parent link out of the node.
#[derive(Debug, Clone, Copy)]
struct Node {
    pos: BlockPos,
    state: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    const UNTESTED: u32 = 0;
    const BLOCKED: u32 = 1;
    const WALKABLE: u32 = 2;
    /// `via` of a node no move has reached: the start, or a position only
    /// seen so far.
    const NO_MOVE: u32 = 15;
    /// `g` of a node no route has reached; also the exclusive bound on a
    /// representable route length.
    const UNREACHED: u32 = (1 << 26) - 1;

    fn new(pos: BlockPos, g: u32, via: u32, walk: u32) -> Self {
        Node {
            pos,
            state: g << 6 | via << 2 | walk,
        }
    }

    fn walk(self) -> u32 {
        self.state & 3
    }

    fn via(self) -> u32 {
        self.state >> 2 & 15
    }

    fn g(self) -> u32 {
        self.state >> 6
    }
}

/// One bucket of the position index: live only while `epoch` is the
/// current search's.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    epoch: u32,
    node: u32,
}

/// What a mob needs from a route: the answer of [`next_step_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextStep {
    /// The first position of the path (see [`PathResult::path`]); `None`
    /// when the path is empty — no route, or already at the goal.
    pub first_step: Option<BlockPos>,
    /// Number of nodes expanded by the search.
    pub nodes_expanded: u32,
    /// Whether the goal was reached.
    pub reached_goal: bool,
}

/// One remembered [`next_step_with`] answer: the question, the
/// [`BlockReader::terrain_epoch`] it was answered under, and the answer.
#[derive(Debug, Clone, Copy)]
struct Route {
    from: BlockPos,
    to: BlockPos,
    max_nodes: u32,
    terrain_epoch: u64,
    answer: NextStep,
}

/// Entries of [`PathScratch::routes`]: a power of two, 16 KiB in all. Each
/// mob asks one question per tick, so the table has to hold about as many
/// answers as mobs share the scratch; two questions that land on one entry
/// evict each other. Measured against a table sixteen times the size, that
/// costs 3 of 94 points of hit rate on the Control world (a few dozen
/// mobs) and 7 of 78 on the Farm.
const ROUTES: usize = 256;

const _: () = assert!(ROUTES * std::mem::size_of::<Option<Route>>() <= 16 << 10);

/// The reusable working memory of [`find_path_with`] and
/// [`next_step_with`]: keep one per caller and hand it to every search. A
/// fresh one allocates nothing until a search needs it.
///
/// It carries no *observable* state from one search to the next: the search
/// tables are capacity only, and the route table holds answers that a
/// search run now would return bit for bit (module docs, "One search per
/// question"), so no caller can tell a scratch that has served a thousand
/// searches from a fresh one except by the time it takes.
#[derive(Debug, Default)]
pub struct PathScratch {
    /// Every position the current search has seen, in first-seen order.
    nodes: Vec<Node>,
    /// Open-addressed (linear probing) position → `nodes` index; empty or a
    /// power of two, at most half full.
    index: Vec<Slot>,
    /// Stamp of the current search; `Slot`s carrying another are empty.
    epoch: u32,
    /// The open set: `((f << 32) | counter, node)`, smallest first.
    open: BinaryHeap<Reverse<(u64, u32)>>,
    /// Remembered answers, direct-mapped by question: empty until the first
    /// answer is stored, [`ROUTES`] entries from then on, never iterated. A
    /// question that maps to an occupied entry replaces it.
    routes: Vec<Option<Route>>,
    /// Questions [`next_step_with`] was asked, and how many of them it had
    /// to search for: the rest were remembered.
    #[cfg(test)]
    pub(crate) routes_asked: u64,
    #[cfg(test)]
    pub(crate) searches_run: u64,
}

impl PathScratch {
    /// Forgets the previous search without touching the index: its slots
    /// carry the old epoch. Only when the 32-bit epoch wraps is the table
    /// actually wiped.
    fn begin(&mut self) {
        self.nodes.clear();
        self.open.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.index.fill(Slot::default());
            self.epoch = 1;
        }
    }

    fn bucket(&self, pos: BlockPos) -> usize {
        let mut hasher = PosHasher::default();
        pos.hash(&mut hasher);
        hasher.finish() as usize & (self.index.len() - 1)
    }

    /// Probes the index for `pos`: `Ok` with its node if this search has
    /// seen it, `Err` with the empty slot where it belongs if not.
    fn probe(&self, pos: BlockPos) -> Result<usize, usize> {
        let mut at = self.bucket(pos);
        loop {
            let slot = self.index[at];
            if slot.epoch != self.epoch {
                return Err(at);
            }
            if self.nodes[slot.node as usize].pos == pos {
                return Ok(slot.node as usize);
            }
            at = (at + 1) & (self.index.len() - 1);
        }
    }

    /// The node for `pos`, added as unreached and untested if this search
    /// has not seen it yet. The hot loop of a search: [`PathScratch::probe`]
    /// written out, with the insertion in place.
    fn intern(&mut self, pos: BlockPos) -> usize {
        if (self.nodes.len() + 1) * 2 > self.index.len() {
            self.grow_index();
        }
        let mut at = self.bucket(pos);
        loop {
            let slot = self.index[at];
            if slot.epoch != self.epoch {
                let node = self.nodes.len();
                self.index[at] = Slot {
                    epoch: self.epoch,
                    node: u32::try_from(node).expect("search arena outgrew its u32 index"),
                };
                self.nodes.push(Node::new(
                    pos,
                    Node::UNREACHED,
                    Node::NO_MOVE,
                    Node::UNTESTED,
                ));
                return node;
            }
            if self.nodes[slot.node as usize].pos == pos {
                return slot.node as usize;
            }
            at = (at + 1) & (self.index.len() - 1);
        }
    }

    /// Doubles the index and re-files the current search's nodes in it.
    fn grow_index(&mut self) {
        let len = (self.index.len() * 2).max(64);
        self.index.clear();
        self.index.resize(len, Slot::default());
        for node in 0..self.nodes.len() {
            let at = self
                .probe(self.nodes[node].pos)
                .expect_err("a search holds each position once");
            self.index[at] = Slot {
                epoch: self.epoch,
                node: node as u32,
            };
        }
    }

    /// Walks the route that reached `goal_node` backwards, from (inclusive)
    /// the goal to (exclusive) `start`, by undoing each node's recorded
    /// move.
    fn walk_back(&self, goal_node: usize, start: BlockPos, mut visit: impl FnMut(BlockPos)) {
        let mut node = self.nodes[goal_node];
        visit(node.pos);
        while node.via() != Node::NO_MOVE {
            let (dx, dy, dz) = MOVES[node.via() as usize];
            let prev = node.pos.offset(-dx, -dy, -dz);
            if prev == start {
                break;
            }
            visit(prev);
            let at = self
                .probe(prev)
                .expect("a reached node's predecessor is in the table");
            node = self.nodes[at];
        }
    }

    /// Where the question `(from, to, max_nodes)` lives in `routes`.
    fn route_slot(from: BlockPos, to: BlockPos, max_nodes: u32) -> usize {
        let mut hasher = PosHasher::default();
        from.hash(&mut hasher);
        to.hash(&mut hasher);
        hasher.write_u64(u64::from(max_nodes));
        hasher.finish() as usize & (ROUTES - 1)
    }
}

/// Finds a path from `start` to `goal` using A* over walkable positions.
///
/// `max_nodes` bounds the search so pathological requests (e.g. unreachable
/// goals across modified terrain) terminate; real MLG servers impose similar
/// budget limits per mob per tick.
///
/// Allocates a [`PathScratch`] for the one search; a caller that searches
/// repeatedly keeps one and calls [`find_path_with`].
pub fn find_path<W: BlockReader>(
    world: &mut W,
    start: BlockPos,
    goal: BlockPos,
    max_nodes: u32,
) -> PathResult {
    find_path_with(world, start, goal, max_nodes, &mut PathScratch::default())
}

/// [`find_path`] on caller-kept working memory: same result, and once
/// `scratch` has grown to the largest search it has served, no allocation
/// besides the returned path.
///
/// # Panics
///
/// Panics if a route grows past 2²⁶ − 2 steps (a table of a gibibyte comes
/// first). Heap keys hold `f` in 32 bits: `max_nodes` plus the Manhattan
/// distance from `start` to `goal` must stay below 2³², which
/// `manhattan_distance` itself needs.
pub fn find_path_with<W: BlockReader>(
    world: &mut W,
    start: BlockPos,
    goal: BlockPos,
    max_nodes: u32,
    scratch: &mut PathScratch,
) -> PathResult {
    let mut path = Vec::new();
    let (nodes_expanded, reached_goal) =
        search(world, start, goal, max_nodes, scratch, |pos| path.push(pos));
    path.reverse();
    PathResult {
        path,
        nodes_expanded,
        reached_goal,
    }
}

/// The A* search itself: how many nodes it expanded and whether it reached
/// the goal. When it did, `visit` is shown the route backwards, from
/// (inclusive) the goal to (exclusive) `start` — so the last position it
/// sees is the first step — and nothing when `start` is the goal already.
fn search<W: BlockReader>(
    world: &mut W,
    start: BlockPos,
    goal: BlockPos,
    max_nodes: u32,
    scratch: &mut PathScratch,
    visit: impl FnMut(BlockPos),
) -> (u32, bool) {
    let mut nodes_expanded = 0;
    if start == goal {
        return (nodes_expanded, true);
    }

    scratch.begin();
    let origin = scratch.intern(start);
    scratch.nodes[origin] = Node::new(start, 0, Node::NO_MOVE, Node::UNTESTED);
    let mut counter: u32 = 0;
    let heap_key = |f: u64, counter: u32| {
        debug_assert!(f <= u64::from(u32::MAX), "f must fit the key's high half");
        f << 32 | u64::from(counter)
    };
    scratch.open.push(Reverse((
        heap_key(u64::from(start.manhattan_distance(goal)), counter),
        origin as u32,
    )));

    while let Some(Reverse((_, popped))) = scratch.open.pop() {
        nodes_expanded += 1;
        if nodes_expanded > max_nodes {
            break;
        }
        let current = scratch.nodes[popped as usize];
        if current.pos == goal {
            scratch.walk_back(popped as usize, start, visit);
            return (nodes_expanded, true);
        }
        let tentative = current.g() + 1;
        for (via, &(dx, dy, dz)) in MOVES.iter().enumerate() {
            let next = current.pos.offset(dx, dy, dz);
            let at = scratch.intern(next);
            let mut node = scratch.nodes[at];
            if node.walk() == Node::UNTESTED {
                let walk = if is_walkable(world, next) {
                    Node::WALKABLE
                } else {
                    Node::BLOCKED
                };
                node = Node::new(next, node.g(), node.via(), walk);
                scratch.nodes[at] = node;
            }
            if node.walk() == Node::BLOCKED {
                continue;
            }
            if tentative < node.g() {
                assert!(tentative < Node::UNREACHED, "route length overflows a node");
                scratch.nodes[at] = Node::new(next, tentative, via as u32, Node::WALKABLE);
                counter += 1;
                let f = u64::from(tentative) + u64::from(next.manhattan_distance(goal));
                scratch
                    .open
                    .push(Reverse((heap_key(f, counter), at as u32)));
            }
        }
    }
    (nodes_expanded, false)
}

/// Finds the nearest standable position at or below `pos` (mobs float above
/// the ground slightly due to physics; pathfinding wants the block they stand
/// in).
fn standable_below<W: BlockReader>(world: &mut W, pos: BlockPos) -> BlockPos {
    let mut candidate = pos;
    for _ in 0..4 {
        if is_walkable(world, candidate) {
            return candidate;
        }
        candidate = candidate.down();
    }
    pos
}

/// The first step of a mob's route from the block it occupies, `from`, to
/// the block of its target, `to`: both ends are brought down to the nearest
/// standable block (up to three blocks lower), then [`find_path_with`]
/// answers — its `nodes_expanded` and `reached_goal`, and the first
/// position of its path.
///
/// The answer is remembered in `scratch` and a repeat of the question is
/// served from there, without reading a block, for as long as `world`
/// reports the [`BlockReader::terrain_epoch`] it was stored under; a reader
/// that reports `None` is searched every time. See the module docs, "One
/// search per question", for why the two cannot be told apart. `scratch`
/// must only ever be shown one world.
pub fn next_step_with<W: BlockReader>(
    world: &mut W,
    from: BlockPos,
    to: BlockPos,
    max_nodes: u32,
    scratch: &mut PathScratch,
) -> NextStep {
    #[cfg(test)]
    {
        scratch.routes_asked += 1;
    }
    let slot = PathScratch::route_slot(from, to, max_nodes);
    if let (Some(epoch), Some(Some(kept))) = (world.terrain_epoch(), scratch.routes.get(slot)) {
        if (kept.from, kept.to, kept.max_nodes, kept.terrain_epoch) == (from, to, max_nodes, epoch)
        {
            return kept.answer;
        }
    }

    #[cfg(test)]
    {
        scratch.searches_run += 1;
    }
    let start = standable_below(world, from);
    let goal = standable_below(world, to);
    let mut first_step = None;
    let (nodes_expanded, reached_goal) = search(world, start, goal, max_nodes, scratch, |pos| {
        first_step = Some(pos)
    });
    let answer = NextStep {
        first_step,
        nodes_expanded,
        reached_goal,
    };
    // The epoch is read *after* the search: on a lazily generating reader
    // the search itself may have loaded chunks, and the answer belongs to
    // the terrain it ended on — the one a repeat would start from.
    if let Some(terrain_epoch) = world.terrain_epoch() {
        if scratch.routes.is_empty() {
            scratch.routes = vec![None; ROUTES];
        }
        scratch.routes[slot] = Some(Route {
            from,
            to,
            max_nodes,
            terrain_epoch,
            answer,
        });
    }
    answer
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mlg_world::generation::{FlatGenerator, NoiseGenerator};
    use mlg_world::{Block, BlockKind, Chunk, ChunkPos, World};
    use std::collections::HashMap;

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    fn reference_neighbors_3d(pos: BlockPos) -> [BlockPos; 12] {
        // Horizontal moves plus one-block step up or down in each direction.
        [
            pos.offset(1, 0, 0),
            pos.offset(-1, 0, 0),
            pos.offset(0, 0, 1),
            pos.offset(0, 0, -1),
            pos.offset(1, 1, 0),
            pos.offset(-1, 1, 0),
            pos.offset(0, 1, 1),
            pos.offset(0, 1, -1),
            pos.offset(1, -1, 0),
            pos.offset(-1, -1, 0),
            pos.offset(0, -1, 1),
            pos.offset(0, -1, -1),
        ]
    }

    /// The search as it was before [`PathScratch`], kept verbatim as the
    /// oracle: two hash maps, a `(f, counter, position)` heap, every
    /// neighbour's walkability re-tested from every parent.
    fn reference_find_path<W: BlockReader>(
        world: &mut W,
        start: BlockPos,
        goal: BlockPos,
        max_nodes: u32,
    ) -> PathResult {
        let mut result = PathResult {
            path: Vec::new(),
            nodes_expanded: 0,
            reached_goal: false,
        };
        if start == goal {
            result.reached_goal = true;
            return result;
        }

        let mut open: BinaryHeap<Reverse<(u64, u64, BlockPos)>> = BinaryHeap::new();
        let mut came_from: HashMap<BlockPos, BlockPos> = HashMap::new();
        let mut g_score: HashMap<BlockPos, u64> = HashMap::new();
        let mut counter: u64 = 0;

        g_score.insert(start, 0);
        open.push(Reverse((
            u64::from(start.manhattan_distance(goal)),
            counter,
            start,
        )));

        while let Some(Reverse((_, _, current))) = open.pop() {
            result.nodes_expanded += 1;
            if result.nodes_expanded > max_nodes {
                break;
            }
            if current == goal {
                // Reconstruct the path.
                let mut path = vec![current];
                let mut cursor = current;
                while let Some(&prev) = came_from.get(&cursor) {
                    if prev == start {
                        break;
                    }
                    path.push(prev);
                    cursor = prev;
                }
                path.reverse();
                result.path = path;
                result.reached_goal = true;
                return result;
            }
            let current_g = g_score[&current];
            for next in reference_neighbors_3d(current) {
                if !is_walkable(world, next) {
                    continue;
                }
                let tentative = current_g + 1;
                if tentative < *g_score.get(&next).unwrap_or(&u64::MAX) {
                    came_from.insert(next, current);
                    g_score.insert(next, tentative);
                    counter += 1;
                    let f = tentative + u64::from(next.manhattan_distance(goal));
                    open.push(Reverse((f, counter, next)));
                }
            }
        }
        result
    }

    pub(crate) fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// A flat world with random walls, one-block steps, pits and roofs in
    /// the 40×40 blocks around the origin. Only the chunks the features
    /// touch are loaded, so searches wander into columns that are generated
    /// on first read.
    fn obstacle_course(seed: u64) -> World {
        let mut w = world();
        let mut next = xorshift(seed);
        let stone = Block::simple(BlockKind::Stone);
        for _ in 0..next() % 90 {
            let x = (next() % 40) as i32 - 20;
            let z = (next() % 40) as i32 - 20;
            let len = (next() % 6) as i32 + 1;
            let (dx, dz) = if next() & 1 == 0 { (1, 0) } else { (0, 1) };
            let feature = next() % 4;
            for i in 0..len {
                let (x, z) = (x + dx * i, z + dz * i);
                match feature {
                    0 => {
                        for y in STAND_Y..STAND_Y + 3 {
                            w.set_block_silent(BlockPos::new(x, y, z), stone);
                        }
                    }
                    1 => {
                        w.set_block_silent(BlockPos::new(x, STAND_Y, z), stone);
                    }
                    2 => {
                        for y in STAND_Y - 3..STAND_Y {
                            w.set_block_silent(BlockPos::new(x, y, z), Block::AIR);
                        }
                    }
                    _ => {
                        w.set_block_silent(BlockPos::new(x, STAND_Y + 2, z), stone);
                    }
                }
            }
        }
        w
    }

    /// A start or goal: mostly on the surface near the course, sometimes
    /// mid-air, underground or off the vertical edge of the world.
    fn endpoint(next: &mut impl FnMut() -> u64) -> BlockPos {
        let x = (next() % 56) as i32 - 28;
        let z = (next() % 56) as i32 - 28;
        let y = match next() % 8 {
            0 => STAND_Y + 1,
            1 => STAND_Y - 2,
            2 => [-1, 0, 1, 127, 128, 129][(next() % 6) as usize],
            _ => STAND_Y,
        };
        BlockPos::new(x, y, z)
    }

    const BUDGETS: [u32; 5] = [1, 7, 50, 512, 4_096];

    pub(crate) fn chunk_order(w: &World) -> Vec<ChunkPos> {
        w.iter_chunks().map(Chunk::pos).collect()
    }

    /// Runs `searches` random requests through both implementations on two
    /// copies of the same course — `scratch` shared by all of them — and
    /// requires equal results and equal lazy generation after every one.
    fn assert_matches_reference(seed: u64, searches: usize, scratch: &mut PathScratch) {
        let mut next = xorshift(seed ^ 0x9E37_79B9_7F4A_7C15);
        let (mut expected_world, mut actual_world) = (obstacle_course(seed), obstacle_course(seed));
        for _ in 0..searches {
            let (start, goal) = (endpoint(&mut next), endpoint(&mut next));
            let budget = BUDGETS[(next() % 5) as usize];
            let expected = reference_find_path(&mut expected_world, start, goal, budget);
            let actual = find_path_with(&mut actual_world, start, goal, budget, scratch);
            assert_eq!(
                actual, expected,
                "seed {seed}: {start} -> {goal}, budget {budget}"
            );
            assert_eq!(
                actual_world.chunks_generated_this_tick(),
                expected_world.chunks_generated_this_tick()
            );
            assert_eq!(chunk_order(&actual_world), chunk_order(&expected_world));
        }
        assert_eq!(
            actual_world.loaded_chunk_count(),
            expected_world.loaded_chunk_count()
        );
    }

    proptest::proptest! {
        #[test]
        fn search_equals_the_hash_map_reference_on_random_terrain(seed in proptest::prelude::any::<u64>()) {
            assert_matches_reference(seed, 4, &mut PathScratch::default());
        }
    }

    /// [`next_step_with`] without its memory: both ends resolved, the
    /// reference search, the head of its path.
    fn reference_next_step<W: BlockReader>(
        world: &mut W,
        from: BlockPos,
        to: BlockPos,
        max_nodes: u32,
    ) -> NextStep {
        let start = standable_below(world, from);
        let goal = standable_below(world, to);
        let found = reference_find_path(world, start, goal, max_nodes);
        NextStep {
            first_step: found.path.first().copied(),
            nodes_expanded: found.nodes_expanded,
            reached_goal: found.reached_goal,
        }
    }

    proptest::proptest! {
        #[test]
        fn next_step_is_the_head_of_the_reference_path_however_often_it_is_asked(
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Twelve questions (two of them differing in the budget alone)
            // asked sixty times in random order on one scratch, a block
            // written now and then: most asks are repeats on unchanged
            // terrain, and every one must read like a first.
            let mut next = xorshift(seed ^ 0xA5A5_5A5A_A5A5_5A5A);
            let (mut expected_world, mut actual_world) = (obstacle_course(seed), obstacle_course(seed));
            let mut questions: Vec<(BlockPos, BlockPos, u32)> = (0..11)
                .map(|_| {
                    let budget = BUDGETS[(next() % 5) as usize];
                    (endpoint(&mut next), endpoint(&mut next), budget)
                })
                .collect();
            questions.push((questions[0].0, questions[0].1, questions[0].2 + 1));
            let mut scratch = PathScratch::default();
            for _ in 0..60 {
                if next() & 7 == 0 {
                    let pos = endpoint(&mut next);
                    let block = if next() & 1 == 0 { Block::AIR } else { Block::simple(BlockKind::Stone) };
                    expected_world.set_block(pos, block);
                    actual_world.set_block(pos, block);
                }
                let (from, to, budget) = questions[(next() % 12) as usize];
                proptest::prop_assert_eq!(
                    next_step_with(&mut actual_world, from, to, budget, &mut scratch),
                    reference_next_step(&mut expected_world, from, to, budget),
                    "seed {}: {} -> {}, budget {}", seed, from, to, budget
                );
                proptest::prop_assert_eq!(
                    actual_world.chunks_generated_this_tick(),
                    expected_world.chunks_generated_this_tick()
                );
                proptest::prop_assert_eq!(chunk_order(&actual_world), chunk_order(&expected_world));
            }
            proptest::prop_assert!(scratch.searches_run < scratch.routes_asked);
        }
    }

    #[test]
    fn one_scratch_serves_many_searches_across_the_epoch_wrap() {
        // 160 searches on 40 courses through one scratch: no node of an
        // earlier search — a verdict, a route length, a table slot — may
        // leak into a later one. The first search of all exhausts a large
        // budget, filing thousands of slots under stamp 1; the epoch is
        // then put at its last value, so the very next search wraps back
        // to stamp 1 and only the wipe keeps those slots dead.
        let mut scratch = PathScratch::default();
        let buried = BlockPos::new(500, 3, 500);
        let flood = find_path_with(
            &mut world(),
            BlockPos::new(0, STAND_Y, 0),
            buried,
            4_096,
            &mut scratch,
        );
        assert_eq!((flood.nodes_expanded, scratch.epoch), (4_097, 1));
        scratch.epoch = u32::MAX;
        for seed in 0..40 {
            assert_matches_reference(seed * 7_919 + 1, 4, &mut scratch);
        }
        assert_eq!(scratch.epoch, 160);
    }

    #[test]
    fn frozen_reads_match_the_reference_too() {
        // The sharded entity phase searches a frozen snapshot, where
        // unloaded columns are air instead of being generated.
        let pool = mlg_world::shard::TickPipeline::new(1, 1);
        for seed in [3_u64, 11, 12_345] {
            let mut w = obstacle_course(seed);
            let mut next = xorshift(seed);
            let requests: Vec<(BlockPos, BlockPos, u32)> = (0..8)
                .map(|_| {
                    let budget = BUDGETS[(next() % 5) as usize];
                    (endpoint(&mut next), endpoint(&mut next), budget)
                })
                .collect();
            let (results, ()) = w.run_frozen_phase(
                &pool.scope(),
                vec![(requests, Vec::new())],
                (),
                |mut frozen, (requests, out): &mut (Vec<_>, Vec<_>), ()| {
                    let mut scratch = PathScratch::default();
                    for &(start, goal, budget) in requests.iter() {
                        out.push((
                            reference_find_path(&mut frozen, start, goal, budget),
                            find_path_with(&mut frozen, start, goal, budget, &mut scratch),
                        ));
                    }
                },
            );
            for (expected, actual) in &results[0].1 {
                assert_eq!(actual, expected, "seed {seed}");
            }
        }
    }

    #[test]
    fn steady_state_searches_grow_nothing() {
        // The Control world's terrain (noise generator, the paper's seed)
        // and the budget mob AI uses: after one pass over a request set has
        // sized the scratch, a thousand more searches must not grow the
        // arena, the index or the heap — the returned path is the only
        // allocation left. The sizes are also bounded by what the budget
        // can touch (≤ 6,145 positions), not by a fixed table.
        let mut w = World::new(Box::new(NoiseGenerator::new(392_114_485)), 392_114_485);
        w.ensure_area(ChunkPos::new(0, 0), 4);
        let mut next = xorshift(0xC0FFEE);
        let requests: Vec<(BlockPos, BlockPos)> = (0..1_000)
            .map(|_| {
                let mut stand = || {
                    let x = (next() % 96) as i32 - 48;
                    let z = (next() % 96) as i32 - 48;
                    BlockPos::new(x, w.highest_block_y(x, z).unwrap_or(63) + 1, z)
                };
                (stand(), stand())
            })
            .collect();
        let mut scratch = PathScratch::default();
        let sizes = |s: &PathScratch| {
            (
                s.nodes.capacity(),
                s.index.capacity(),
                s.open.capacity(),
                s.routes.capacity(),
            )
        };
        assert_eq!(
            sizes(&scratch),
            (0, 0, 0, 0),
            "a fresh scratch owns nothing"
        );
        // Each request is searched as a path and asked as a mob's route:
        // the second stores an answer per request in the route table.
        let mut both = |scratch: &mut PathScratch, start, goal| {
            let _ = next_step_with(&mut w, start, goal, 512, scratch);
            find_path_with(&mut w, start, goal, 512, scratch)
        };
        for &(start, goal) in &requests {
            let _ = both(&mut scratch, start, goal);
        }
        let warmed = sizes(&scratch);
        let mut exhausted = 0;
        for &(start, goal) in &requests {
            let result = both(&mut scratch, start, goal);
            exhausted += u32::from(result.nodes_expanded > 512);
            assert_eq!(sizes(&scratch), warmed);
        }
        assert!(
            exhausted > 0,
            "the set must include budget-exhausting searches"
        );
        assert_eq!(warmed.3, ROUTES, "the route table is allocated once, whole");
        let bytes = warmed.0 * std::mem::size_of::<Node>()
            + warmed.1 * std::mem::size_of::<Slot>()
            + warmed.2 * std::mem::size_of::<Reverse<(u64, u32)>>()
            + warmed.3 * std::mem::size_of::<Option<Route>>();
        assert!(warmed.0 <= 8_192 && warmed.1 <= 16_384, "{warmed:?}");
        assert!(bytes <= 512 << 10, "{bytes} bytes for a 512-node budget");
    }

    // On the flat world the surface is grass at y = 60, so mobs stand at y = 61.
    pub(crate) const STAND_Y: i32 = 61;

    #[test]
    fn straight_line_path_on_flat_ground() {
        let mut w = world();
        let start = BlockPos::new(0, STAND_Y, 0);
        let goal = BlockPos::new(6, STAND_Y, 0);
        let result = find_path(&mut w, start, goal, 10_000);
        assert!(result.reached_goal);
        assert_eq!(result.path.last(), Some(&goal));
        assert_eq!(result.path.len(), 6);
    }

    #[test]
    fn path_routes_around_a_wall() {
        let mut w = world();
        // Build a wall across the straight-line route.
        for z in -3..=3 {
            for y in STAND_Y..STAND_Y + 3 {
                w.set_block_silent(BlockPos::new(3, y, z), Block::simple(BlockKind::Stone));
            }
        }
        let start = BlockPos::new(0, STAND_Y, 0);
        let goal = BlockPos::new(6, STAND_Y, 0);
        let result = find_path(&mut w, start, goal, 10_000);
        assert!(result.reached_goal);
        assert!(
            result.path.len() > 6,
            "detour must be longer than the direct route"
        );
        // The path never crosses the wall column except above it.
        for p in &result.path {
            if p.x == 3 {
                assert!(p.z.abs() > 3 || p.y > STAND_Y + 2);
            }
        }
    }

    #[test]
    fn path_climbs_single_block_steps() {
        let mut w = world();
        // A one-block step up halfway along the route.
        for x in 3..7 {
            for z in -1..=1 {
                w.set_block_silent(
                    BlockPos::new(x, STAND_Y, z),
                    Block::simple(BlockKind::Stone),
                );
            }
        }
        let start = BlockPos::new(0, STAND_Y, 0);
        let goal = BlockPos::new(5, STAND_Y + 1, 0);
        let result = find_path(&mut w, start, goal, 10_000);
        assert!(result.reached_goal);
    }

    #[test]
    fn unreachable_goal_exhausts_budget() {
        let mut w = world();
        // Surround the goal with a solid box.
        let goal = BlockPos::new(10, STAND_Y, 10);
        for dx in -1..=1 {
            for dz in -1..=1 {
                for dy in -1..=2 {
                    if dx == 0 && dz == 0 && (dy == 0 || dy == 1) {
                        continue;
                    }
                    w.set_block_silent(goal.offset(dx, dy, dz), Block::simple(BlockKind::Obsidian));
                }
            }
        }
        let result = find_path(&mut w, BlockPos::new(0, STAND_Y, 0), goal, 500);
        assert!(!result.reached_goal);
        assert!(
            result.nodes_expanded >= 500,
            "search should hit the node budget"
        );
    }

    #[test]
    fn trivial_path_to_self() {
        let mut w = world();
        let p = BlockPos::new(0, STAND_Y, 0);
        let result = find_path(&mut w, p, p, 100);
        assert!(result.reached_goal);
        assert!(result.path.is_empty());
        assert_eq!(result.nodes_expanded, 0);
    }

    #[test]
    fn walkability_requires_ground_and_headroom() {
        let mut w = world();
        assert!(is_walkable(&mut w, BlockPos::new(0, STAND_Y, 0)));
        // Mid-air is not walkable.
        assert!(!is_walkable(&mut w, BlockPos::new(0, STAND_Y + 5, 0)));
        // A low ceiling blocks walkability.
        w.set_block_silent(
            BlockPos::new(2, STAND_Y + 1, 0),
            Block::simple(BlockKind::Stone),
        );
        assert!(!is_walkable(&mut w, BlockPos::new(2, STAND_Y, 0)));
    }

    #[test]
    fn terrain_modification_invalidates_previous_routes() {
        let mut w = world();
        let start = BlockPos::new(0, STAND_Y, 0);
        let goal = BlockPos::new(4, STAND_Y, 0);
        let before = find_path(&mut w, start, goal, 10_000);
        assert!(before.reached_goal);
        // Dig a wide trench the mob cannot cross (3 blocks deep, no steps).
        for z in -8..=8 {
            for x in 2..=2 {
                for y in (STAND_Y - 4)..STAND_Y {
                    w.set_block_silent(BlockPos::new(x, y, z), Block::AIR);
                }
            }
        }
        let after = find_path(&mut w, start, goal, 2_000);
        // Either the path is much longer (routing around the trench) or the
        // goal became unreachable within budget — both demonstrate dynamic
        // recomputation.
        assert!(!after.reached_goal || after.path.len() > before.path.len());
    }
}
