use crate::SimError;

/// One line-sized memory access emitted by the trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryRequest {
    /// Line-aligned physical address.
    pub addr: u64,
    /// Write (`true`) or read (`false`).
    pub write: bool,
    /// Whether this line belongs to an encrypted region (and must pass the
    /// AES engine under `Direct`/`Counter` modes).
    pub encrypted: bool,
}

/// How a region's bytes are walked by the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential scan of the whole region, repeated `passes` times
    /// (fractional passes truncate the final scan). This is the DRAM-traffic
    /// shape of a well-tiled streaming kernel.
    Stream {
        /// Number of full scans (may be fractional).
        passes: f64,
    },
    /// Tile-blocked walk of a `rows × row_bytes` matrix: tiles of
    /// `tile_rows` rows are visited left-to-right, touching each row in
    /// `tile_cols`-byte slices. Strides of `row_bytes` between consecutive
    /// accesses defeat page locality, which is what makes the counter-cache
    /// size sweep of Fig. 1 meaningful.
    Tiled {
        /// Rows of the matrix.
        rows: u64,
        /// Bytes per row.
        row_bytes: u64,
        /// Rows per tile.
        tile_rows: u64,
        /// Bytes of each row touched per tile step.
        tile_cols: u64,
        /// Number of full matrix sweeps.
        passes: f64,
    },
    /// Tile-blocked *reuse* walk: the region is visited in `tile_bytes`
    /// blocks, each streamed `reads` times back-to-back before the walk
    /// advances. This is how a blocked GEMM actually re-reads a weight
    /// panel or im2col slice — the re-reference distance is one tile, not
    /// the whole buffer, so counter-cache hit rate becomes a function of
    /// capacity (the Fig. 6–8 sweeps) instead of collapsing to zero the
    /// way a cyclic full-buffer rescan does.
    TiledReuse {
        /// Reuse-block size in bytes (clamped up to one line).
        tile_bytes: u64,
        /// Times each block is streamed before advancing; the fractional
        /// part truncates the final repeat of every block.
        reads: f64,
    },
}

impl Default for AccessPattern {
    fn default() -> Self {
        AccessPattern::Stream { passes: 1.0 }
    }
}

/// A contiguous address range with an access pattern and security tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Region name (for reports).
    pub name: String,
    /// Base address.
    pub base: u64,
    /// Region size in bytes.
    pub bytes: u64,
    /// Whether the region was allocated with `emalloc` (must be encrypted).
    pub encrypted: bool,
    /// Whether accesses are writes.
    pub write: bool,
    /// Walk pattern.
    pub pattern: AccessPattern,
}

impl Region {
    /// A read region streamed once.
    pub fn read(name: impl Into<String>, base: u64, bytes: u64) -> Self {
        Region {
            name: name.into(),
            base,
            bytes,
            encrypted: false,
            write: false,
            pattern: AccessPattern::default(),
        }
    }

    /// A write region streamed once.
    pub fn write(name: impl Into<String>, base: u64, bytes: u64) -> Self {
        Region {
            write: true,
            ..Region::read(name, base, bytes)
        }
    }

    /// Sets the encrypted tag.
    #[must_use]
    pub fn encrypted(mut self, enc: bool) -> Self {
        self.encrypted = enc;
        self
    }

    /// Sets the number of streaming passes.
    #[must_use]
    pub fn passes(mut self, passes: f64) -> Self {
        self.pattern = AccessPattern::Stream { passes };
        self
    }

    /// Switches to a tiled matrix walk.
    #[must_use]
    pub fn tiled(mut self, rows: u64, row_bytes: u64, tile_rows: u64, tile_cols: u64, passes: f64) -> Self {
        self.pattern = AccessPattern::Tiled {
            rows,
            row_bytes,
            tile_rows,
            tile_cols,
            passes,
        };
        self
    }

    /// Switches to a tile-blocked reuse walk: `tile_bytes` blocks, each
    /// streamed `reads` times back-to-back.
    #[must_use]
    pub fn tiled_reuse(mut self, tile_bytes: u64, reads: f64) -> Self {
        self.pattern = AccessPattern::TiledReuse { tile_bytes, reads };
        self
    }

    /// Total bytes this region moves across the bus (size × passes).
    pub fn traffic_bytes(&self) -> u64 {
        let passes = match self.pattern {
            AccessPattern::Stream { passes } => passes,
            AccessPattern::Tiled { passes, .. } => passes,
            AccessPattern::TiledReuse { reads, .. } => reads,
        };
        (self.bytes as f64 * passes).round() as u64
    }
}

/// A kernel-level workload: memory regions plus a front-end instruction
/// budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    regions: Vec<Region>,
    instructions: u64,
    frontend_efficiency: f64,
    dram_efficiency: f64,
}

/// Builder for [`Workload`].
#[derive(Debug, Default)]
pub struct WorkloadBuilder {
    name: String,
    regions: Vec<Region>,
    instructions: u64,
    frontend_efficiency: f64,
    dram_efficiency: f64,
}

impl Workload {
    /// Starts building a workload.
    pub fn builder(name: impl Into<String>) -> WorkloadBuilder {
        WorkloadBuilder {
            name: name.into(),
            regions: Vec::new(),
            instructions: 0,
            frontend_efficiency: 0.85,
            dram_efficiency: 0.80,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The memory regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total front-end (thread) instructions.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Fraction of peak issue the front end sustains.
    pub fn frontend_efficiency(&self) -> f64 {
        self.frontend_efficiency
    }

    /// Fraction of peak DRAM bandwidth this access pattern sustains
    /// (streaming ≈ 0.8–0.85, strided pooling ≈ 0.5).
    pub fn dram_efficiency(&self) -> f64 {
        self.dram_efficiency
    }

    /// Total bytes moved across the memory bus.
    pub fn traffic_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.traffic_bytes()).sum()
    }

    /// Bytes of traffic belonging to encrypted regions.
    pub fn encrypted_bytes(&self) -> u64 {
        self.regions
            .iter()
            .filter(|r| r.encrypted)
            .map(|r| r.traffic_bytes())
            .sum()
    }

    /// Streams the interleaved request trace for `line`-byte accesses.
    ///
    /// Region streams are merged with even pacing (a request from a region
    /// holding `k` of the total `n` requests appears every `n/k` slots), so
    /// concurrent weight/ifmap/ofmap streams hit the controllers the way a
    /// real kernel's loads interleave. Nothing is materialised: each region
    /// is a resumable cursor, and the iterator knows its exact length up
    /// front (`len()` costs O(regions), no walk).
    pub fn requests(&self, line: u64) -> Requests {
        Requests::new(&self.regions, line.max(1))
    }

    /// The whole trace of [`requests`](Self::requests) as a vector.
    pub fn trace(&self, line: u64) -> Vec<MemoryRequest> {
        self.requests(line).collect()
    }
}

/// Resumable line-granular walk of one [`Region`].
///
/// Every pattern decomposes into *segments*: `seg_len` consecutive lines
/// from `seg_start`, walked cyclically for `seg_left` requests. A stream is
/// one segment (the region, wrapped once per pass); a reuse walk is one
/// segment per tile; a tiled matrix walk is one segment per (column tile,
/// row). `advance` loads the next segment, so the per-request step is an
/// add and a compare, and line alignment costs one division per segment.
#[derive(Debug, Clone)]
struct Cursor {
    line: u64,
    addr: u64,
    seg_start: u64,
    seg_len: u64,
    seg_pos: u64,
    seg_left: u64,
    walk: Walk,
}

/// What produces a cursor's next segment.
#[derive(Debug, Clone)]
enum Walk {
    /// The only segment is already loaded ([`AccessPattern::Stream`]).
    Single,
    /// [`AccessPattern::TiledReuse`]: the next tile starts `t0` bytes in.
    Reuse {
        base: u64,
        bytes: u64,
        tile: u64,
        reads: f64,
        t0: u64,
    },
    /// [`AccessPattern::Tiled`]: rows `r0..r1` × columns `c0..c1` is the
    /// current tile of a sweep over `limit` rows; `r` is its next row.
    Tiled {
        base: u64,
        rows: u64,
        row_bytes: u64,
        tile_rows: u64,
        tile_cols: u64,
        /// Whole-matrix sweeps still to start, then one of `frac_rows`.
        full_passes: u64,
        frac_rows: u64,
        limit: u64,
        r0: u64,
        r1: u64,
        c0: u64,
        c1: u64,
        r: u64,
    },
}

impl Cursor {
    /// The cursor of `region` and the exact number of requests it yields.
    fn new(region: &Region, line: u64) -> (Cursor, u64) {
        let mut cursor = Cursor {
            line,
            addr: 0,
            seg_start: 0,
            seg_len: 1,
            seg_pos: 0,
            seg_left: 0,
            walk: Walk::Single,
        };
        let count = match region.pattern {
            AccessPattern::Stream { passes } => {
                let total = ((region.bytes as f64 * passes) / line as f64).ceil() as u64;
                cursor.load(region.base, region.bytes.div_ceil(line).max(1), total);
                total
            }
            AccessPattern::TiledReuse { tile_bytes, reads } => {
                let tile = tile_bytes.max(line);
                cursor.walk = Walk::Reuse {
                    base: region.base,
                    bytes: region.bytes,
                    tile,
                    reads,
                    t0: 0,
                };
                let per_tile = |bytes: u64| (bytes.div_ceil(line) as f64 * reads).round() as u64;
                (region.bytes / tile) * per_tile(tile) + per_tile(region.bytes % tile)
            }
            AccessPattern::Tiled {
                rows,
                row_bytes,
                tile_rows,
                tile_cols,
                passes,
            } => {
                let tile_cols = tile_cols.max(line);
                let full_passes = passes.floor() as u64;
                // A fractional pass sweeps only the first rows.
                let frac = passes - passes.floor();
                let frac_rows = if frac > 1e-9 {
                    (rows as f64 * frac).round() as u64
                } else {
                    0
                };
                cursor.walk = Walk::Tiled {
                    base: region.base,
                    rows,
                    row_bytes,
                    tile_rows: tile_rows.max(1),
                    tile_cols,
                    full_passes,
                    frac_rows,
                    // An exhausted sweep: the first `advance` starts one.
                    limit: 0,
                    r0: 0,
                    r1: 0,
                    c0: 0,
                    c1: row_bytes,
                    r: 0,
                };
                let per_row = (row_bytes / tile_cols) * tile_cols.div_ceil(line)
                    + (row_bytes % tile_cols).div_ceil(line);
                (full_passes * rows + frac_rows) * per_row
            }
        };
        (cursor, count)
    }

    /// Loads a segment of `len` lines from the line holding `start`, to be
    /// walked (cyclically) for `left` requests.
    fn load(&mut self, start: u64, len: u64, left: u64) {
        self.seg_start = start / self.line * self.line;
        self.addr = self.seg_start;
        self.seg_len = len;
        self.seg_pos = 0;
        self.seg_left = left;
    }

    /// Loads the next segment; `false` once the walk is over.
    fn advance(&mut self) -> bool {
        let line = self.line;
        match &mut self.walk {
            Walk::Single => false,
            Walk::Reuse {
                base,
                bytes,
                tile,
                reads,
                t0,
            } => {
                if *t0 >= *bytes {
                    return false;
                }
                let start = *base + *t0;
                let t1 = (*t0 + *tile).min(*bytes);
                let lines = (t1 - *t0).div_ceil(line);
                let total = (lines as f64 * *reads).round() as u64;
                *t0 = t1;
                self.load(start, lines, total);
                true
            }
            Walk::Tiled {
                base,
                rows,
                row_bytes,
                tile_rows,
                tile_cols,
                full_passes,
                frac_rows,
                limit,
                r0,
                r1,
                c0,
                c1,
                r,
            } => loop {
                if *r < *r1 {
                    // Next row of the current tile.
                    let start = *base + *r * *row_bytes + *c0;
                    let lines = (*c1 - *c0).div_ceil(line);
                    *r += 1;
                    self.load(start, lines, lines);
                    return true;
                }
                if *c1 < *row_bytes {
                    // Same rows, next column tile.
                    *c0 = *c1;
                } else if *r1 < *limit {
                    // Next row tile, back at the left edge.
                    *r0 = *r1;
                    *r1 = (*r0 + *tile_rows).min(*limit);
                    *c0 = 0;
                } else {
                    // Next sweep: the whole ones first, then the fraction.
                    if *full_passes > 0 && *rows > 0 {
                        *full_passes -= 1;
                        *limit = *rows;
                    } else if *frac_rows > 0 {
                        *limit = *frac_rows;
                        *frac_rows = 0;
                    } else {
                        return false;
                    }
                    *r0 = 0;
                    *r1 = (*tile_rows).min(*limit);
                    *c0 = 0;
                }
                *c1 = (*c0 + *tile_cols).min(*row_bytes);
                *r = *r0;
            },
        }
    }

    /// How many consecutive lines the walk yields next without a jump
    /// (at least 1 while requests remain, 0 once the walk is over).
    fn contiguous(&mut self) -> u64 {
        while self.seg_left == 0 {
            if !self.advance() {
                return 0;
            }
        }
        (self.seg_len - self.seg_pos).min(self.seg_left)
    }

    /// Steps over the next `k ≤ contiguous()` lines; returns the address
    /// of the first.
    fn consume(&mut self, k: u64) -> u64 {
        let addr = self.addr;
        self.seg_left -= k;
        self.seg_pos += k;
        if self.seg_pos == self.seg_len {
            self.seg_pos = 0;
            self.addr = self.seg_start;
        } else {
            self.addr += k * self.line;
        }
        addr
    }
}

/// One region's stream inside the pacing merge.
#[derive(Debug, Clone)]
struct Lane {
    /// Pacing interval `1 / n` of a stream of `n` requests.
    step: f64,
    left: u64,
    write: bool,
    encrypted: bool,
    cursor: Cursor,
}

/// The streaming request trace of a [`Workload`]: the even-pacing merge of
/// its regions' cursors, yielded one request at a time.
///
/// A stream of `n` requests is due at times `0.5/n, 1.5/n, …` (each the
/// previous plus `1/n`); the merge yields the request with the earliest
/// due time, the lower region index winning ties. The live streams are
/// kept sorted by that key, so the head is always next; it is drained in
/// *runs* — consecutive lines of one region that come out back to back —
/// and re-seated once per run, which leaves `next` an add and a compare.
#[derive(Debug, Clone)]
pub struct Requests {
    /// What `next` returns while the run lasts, one line further each time.
    request: MemoryRequest,
    line: u64,
    /// Requests left in the current run.
    run: u64,
    remaining: usize,
    /// `(due time, index into lanes)` of every live lane, ascending (as
    /// tuples compare: by time, then by index).
    order: Vec<(f64, usize)>,
    /// One lane per region with any requests, in region order.
    lanes: Vec<Lane>,
}

impl Requests {
    fn new(regions: &[Region], line: u64) -> Requests {
        let mut order = Vec::with_capacity(regions.len());
        let mut lanes = Vec::with_capacity(regions.len());
        let mut remaining = 0usize;
        for region in regions {
            let (cursor, count) = Cursor::new(region, line);
            if count == 0 {
                continue;
            }
            remaining += count as usize;
            order.push((0.5 / count as f64, lanes.len()));
            lanes.push(Lane {
                step: 1.0 / count as f64,
                left: count,
                write: region.write,
                encrypted: region.encrypted,
                cursor,
            });
        }
        // Stable: equal due times stay in region order.
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        Requests {
            request: MemoryRequest {
                addr: 0,
                write: false,
                encrypted: false,
            },
            line,
            run: 0,
            remaining,
            order,
            lanes,
        }
    }

    /// Starts the next run: takes the head lane, finds how long it keeps
    /// the head, steps its cursor that far and re-seats it in `order`.
    /// `false` when no lane is live.
    fn start_run(&mut self) -> bool {
        let Some(&(mut due, index)) = self.order.first() else {
            return false;
        };
        let runner_up = self.order.get(1).copied();
        let lane = &mut self.lanes[index];
        let most = lane.cursor.contiguous().min(lane.left);
        debug_assert!(most > 0, "a live lane has requests left to yield");
        let run = match runner_up {
            // Alone: nothing to lose the head to.
            None => most,
            // The lane keeps the head while `(due, index)` stays below the
            // runner-up's — found by the same `+ 1/n` additions, in the
            // same order, as a merge that re-examines every lane after
            // every request.
            Some(runner_up) => {
                let mut run = 0;
                loop {
                    due += lane.step;
                    run += 1;
                    if run == most || runner_up < (due, index) {
                        break run;
                    }
                }
            }
        };
        self.request = MemoryRequest {
            addr: lane.cursor.consume(run),
            write: lane.write,
            encrypted: lane.encrypted,
        };
        self.run = run;
        lane.left -= run;
        if lane.left == 0 {
            self.order.remove(0);
        } else {
            // Insertion step: lanes due before this one move up a seat.
            let mut seat = 0;
            while self.order.get(seat + 1).is_some_and(|&next| next < (due, index)) {
                self.order[seat] = self.order[seat + 1];
                seat += 1;
            }
            self.order[seat] = (due, index);
        }
        true
    }
}

impl Iterator for Requests {
    type Item = MemoryRequest;

    #[inline]
    fn next(&mut self) -> Option<MemoryRequest> {
        if self.run == 0 && !self.start_run() {
            return None;
        }
        self.run -= 1;
        self.remaining -= 1;
        let request = self.request;
        // Wrapping: the address past a run's last line is never used.
        self.request.addr = request.addr.wrapping_add(self.line);
        Some(request)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Requests {}

impl WorkloadBuilder {
    /// Adds a region.
    #[must_use]
    pub fn region(mut self, region: Region) -> Self {
        self.regions.push(region);
        self
    }

    /// Sets the front-end instruction budget.
    #[must_use]
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Overrides the front-end efficiency (fraction of peak issue).
    #[must_use]
    pub fn frontend_efficiency(mut self, eff: f64) -> Self {
        self.frontend_efficiency = eff;
        self
    }

    /// Overrides the DRAM row-locality efficiency.
    #[must_use]
    pub fn dram_efficiency(mut self, eff: f64) -> Self {
        self.dram_efficiency = eff;
        self
    }

    /// Finalises the workload.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty region list or
    /// out-of-range efficiencies.
    pub fn build(self) -> Result<Workload, SimError> {
        if self.regions.is_empty() {
            return Err(SimError::InvalidConfig {
                reason: "workload needs at least one region".into(),
            });
        }
        for eff in [self.frontend_efficiency, self.dram_efficiency] {
            if !(0.01..=1.0).contains(&eff) {
                return Err(SimError::InvalidConfig {
                    reason: format!("efficiency {eff} outside (0, 1]"),
                });
            }
        }
        Ok(Workload {
            name: self.name,
            regions: self.regions,
            instructions: self.instructions,
            frontend_efficiency: self.frontend_efficiency,
            dram_efficiency: self.dram_efficiency,
        })
    }
}

/// The materialising generator this module used to ship — one `Vec` per
/// region, merged through a binary heap — kept as the test oracle for the
/// streaming cursors.
#[cfg(test)]
mod oracle {
    use std::collections::BinaryHeap;

    use super::{AccessPattern, MemoryRequest, Region};

    impl Region {
        /// Emits this region's line-granular request stream.
        pub(super) fn emit(&self, line: u64, out: &mut Vec<MemoryRequest>) {
            let push = |out: &mut Vec<MemoryRequest>, addr: u64| {
                out.push(MemoryRequest {
                    addr: addr / line * line,
                    write: self.write,
                    encrypted: self.encrypted,
                });
            };
            match self.pattern {
                AccessPattern::Stream { passes } => {
                    let total_lines = ((self.bytes as f64 * passes) / line as f64).ceil() as u64;
                    let lines_per_pass = self.bytes.div_ceil(line).max(1);
                    for i in 0..total_lines {
                        let off = (i % lines_per_pass) * line;
                        push(out, self.base + off);
                    }
                }
                AccessPattern::Tiled {
                    rows,
                    row_bytes,
                    tile_rows,
                    tile_cols,
                    passes,
                } => {
                    let tile_rows = tile_rows.max(1);
                    let tile_cols = tile_cols.max(line);
                    let full_passes = passes.floor() as u64;
                    let frac = passes - passes.floor();
                    let mut limits = vec![rows; full_passes as usize];
                    if frac > 1e-9 {
                        limits.push(((rows as f64) * frac).round() as u64);
                    }
                    for limit_rows in limits {
                        let mut r0 = 0u64;
                        while r0 < limit_rows {
                            let r1 = (r0 + tile_rows).min(limit_rows);
                            let mut c0 = 0u64;
                            while c0 < row_bytes {
                                let c1 = (c0 + tile_cols).min(row_bytes);
                                for r in r0..r1 {
                                    let mut c = c0;
                                    while c < c1 {
                                        push(out, self.base + r * row_bytes + c);
                                        c += line;
                                    }
                                }
                                c0 = c1;
                            }
                            r0 = r1;
                        }
                    }
                }
                AccessPattern::TiledReuse { tile_bytes, reads } => {
                    let tile = tile_bytes.max(line);
                    let mut t0 = 0u64;
                    while t0 < self.bytes {
                        let t1 = (t0 + tile).min(self.bytes);
                        let lines_in_tile = (t1 - t0).div_ceil(line);
                        let total = (lines_in_tile as f64 * reads).round() as u64;
                        for i in 0..total {
                            let off = (i % lines_in_tile) * line;
                            push(out, self.base + t0 + off);
                        }
                        t0 = t1;
                    }
                }
            }
        }
    }

    /// Min-heap entry for the pacing merge.
    #[derive(Debug, PartialEq)]
    struct Pace {
        next_time: f64,
        stream: usize,
        index: usize,
    }

    impl Eq for Pace {}

    impl Ord for Pace {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse: BinaryHeap is a max-heap and we want the earliest time.
            other
                .next_time
                .partial_cmp(&self.next_time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| other.stream.cmp(&self.stream))
        }
    }

    impl PartialOrd for Pace {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    pub(super) fn merge_evenly(streams: Vec<Vec<MemoryRequest>>) -> Vec<MemoryRequest> {
        let total: usize = streams.iter().map(Vec::len).sum();
        let mut heap = BinaryHeap::new();
        for (i, s) in streams.iter().enumerate() {
            if !s.is_empty() {
                heap.push(Pace {
                    next_time: 0.5 / s.len() as f64,
                    stream: i,
                    index: 0,
                });
            }
        }
        let mut out = Vec::with_capacity(total);
        while let Some(Pace {
            next_time,
            stream,
            index,
        }) = heap.pop()
        {
            out.push(streams[stream][index]);
            let n = streams[stream].len();
            if index + 1 < n {
                heap.push(Pace {
                    next_time: next_time + 1.0 / n as f64,
                    stream,
                    index: index + 1,
                });
            }
        }
        out
    }

    /// What `Workload::trace` returned before the trace was streamed.
    pub(super) fn trace(regions: &[Region], line: u64) -> Vec<MemoryRequest> {
        let line = line.max(1);
        let streams = regions
            .iter()
            .map(|r| {
                let mut s = Vec::new();
                r.emit(line, &mut s);
                s
            })
            .collect();
        merge_evenly(streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::{Rng, SeedableRng};

    /// The requests of `r` alone, through the streaming generator.
    fn walk(r: &Region, line: u64) -> Vec<MemoryRequest> {
        Workload::builder("walk")
            .region(r.clone())
            .build()
            .unwrap()
            .trace(line)
    }

    #[test]
    fn stream_emits_line_aligned_sequential_addresses() {
        let r = Region::read("a", 0x1000, 512);
        let out = walk(&r, 128);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].addr, 0x1000);
        assert_eq!(out[3].addr, 0x1000 + 3 * 128);
        assert!(!out[0].write && !out[0].encrypted);
    }

    #[test]
    fn fractional_passes_truncate() {
        let r = Region::read("a", 0, 1024).passes(2.5);
        let out = walk(&r, 128);
        assert_eq!(out.len(), 20); // 8 lines × 2.5.
    }

    #[test]
    fn tiled_walk_strides_across_rows() {
        let r = Region::read("m", 0, 4 * 4096).tiled(4, 4096, 2, 128, 1.0);
        let out = walk(&r, 128);
        // First tile: rows 0 and 1 at column 0 — stride of one row (4 KB).
        assert_eq!(out[0].addr, 0);
        assert_eq!(out[1].addr, 4096);
        assert_eq!(out.len(), 4 * 4096 / 128);
    }

    #[test]
    fn tiled_reuse_rereads_each_block_back_to_back() {
        let r = Region::read("w", 0, 1024).tiled_reuse(512, 2.0);
        let out = walk(&r, 128);
        // Two 512 B tiles of 4 lines, each streamed twice: 16 requests.
        assert_eq!(out.len(), 16);
        // First tile repeats immediately (short re-reference distance)…
        assert_eq!(out[0].addr, 0);
        assert_eq!(out[4].addr, 0);
        // …and the second tile starts only after both reads of the first.
        assert_eq!(out[8].addr, 512);
        assert_eq!(out[12].addr, 512);
    }

    #[test]
    fn tiled_reuse_fractional_reads_truncate_per_tile() {
        let r = Region::read("w", 0, 1024).tiled_reuse(512, 1.5);
        let out = walk(&r, 128);
        // 4 lines × 1.5 per tile = 6 requests per tile, two tiles.
        assert_eq!(out.len(), 12);
        assert_eq!(r.traffic_bytes(), 1536);
    }

    #[test]
    fn traffic_accounting() {
        let wl = Workload::builder("t")
            .region(Region::read("a", 0, 1000).encrypted(true).passes(2.0))
            .region(Region::write("b", 10_000, 500))
            .instructions(42)
            .build()
            .unwrap();
        assert_eq!(wl.traffic_bytes(), 2500);
        assert_eq!(wl.encrypted_bytes(), 2000);
        assert_eq!(wl.instructions(), 42);
    }

    #[test]
    fn merge_interleaves_streams_evenly() {
        let wl = Workload::builder("t")
            .region(Region::read("big", 0, 128 * 90))
            .region(Region::write("small", 1 << 20, 128 * 10))
            .build()
            .unwrap();
        let trace = wl.trace(128);
        assert_eq!(trace.len(), 100);
        // The 10 writes should be spread out, not clumped at either end.
        let first_write = trace.iter().position(|r| r.write).unwrap();
        let last_write = trace.iter().rposition(|r| r.write).unwrap();
        assert!(first_write < 15, "first write at {first_write}");
        assert!(last_write > 85, "last write at {last_write}");
    }

    /// A small random region: any pattern, ragged sizes, degenerate tiles.
    fn random_region(rng: &mut StdRng, index: u64) -> Region {
        let base = index * (1 << 24) + rng.gen_range(0..4096u64);
        // Mostly ragged sizes; sometimes empty or a whole number of lines.
        let bytes = match rng.gen_range(0..10u32) {
            0 => 0,
            1 => 128 * rng.gen_range(1..40u64),
            _ => rng.gen_range(1..6000u64),
        };
        // Whole, fractional and zero repeat counts.
        let repeats = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..4u32) as f64,
            _ => rng.gen_range(0.0..3.5f64),
        };
        let r = if rng.gen_bool(0.5) {
            Region::write("r", base, bytes)
        } else {
            Region::read("r", base, bytes)
        };
        let r = r.encrypted(rng.gen_bool(0.5));
        match rng.gen_range(0..3u32) {
            0 => r.passes(repeats),
            1 => {
                let tile_bytes = [0, 1, 64, 100, 128, 512, 1000, 4096][rng.gen_range(0..8usize)];
                r.tiled_reuse(tile_bytes, repeats)
            }
            _ => {
                let rows = rng.gen_range(0..12u64);
                let row_bytes = [0, 64, 100, 128, 384, 500, 1024][rng.gen_range(0..7usize)];
                let tile_rows = rng.gen_range(0..5u64);
                let tile_cols = [0, 1, 64, 128, 200, 256, 2048][rng.gen_range(0..7usize)];
                r.tiled(rows, row_bytes, tile_rows, tile_cols, repeats)
            }
        }
    }

    #[test]
    fn requests_match_the_materialising_oracle_on_random_workloads() {
        let mut patterns = [0usize; 3];
        let mut nonempty = 0usize;
        for seed in 0..600u64 {
            let mut rng = StdRng::seed_from_u64(0x7ace + seed);
            let mut builder = Workload::builder("prop");
            for i in 0..rng.gen_range(1..6u64) {
                let region = random_region(&mut rng, i);
                patterns[match region.pattern {
                    AccessPattern::Stream { .. } => 0,
                    AccessPattern::Tiled { .. } => 1,
                    AccessPattern::TiledReuse { .. } => 2,
                }] += 1;
                builder = builder.region(region);
            }
            let wl = builder.build().unwrap();
            for line in [64u64, 128] {
                let want = oracle::trace(wl.regions(), line);
                let mut requests = wl.requests(line);
                assert_eq!(requests.len(), want.len(), "seed {seed} line {line}: {wl:?}");
                for (i, w) in want.iter().enumerate() {
                    assert_eq!(requests.len(), want.len() - i, "seed {seed} line {line}");
                    assert_eq!(
                        requests.next().as_ref(),
                        Some(w),
                        "seed {seed} line {line} request {i}: {wl:?}"
                    );
                }
                assert_eq!(requests.next(), None, "seed {seed} line {line}");
                assert_eq!(requests.len(), 0);
                nonempty += usize::from(!want.is_empty());
            }
        }
        assert!(patterns.iter().all(|&n| n > 300), "pattern mix {patterns:?}");
        assert!(nonempty > 1000, "only {nonempty} non-empty traces");
    }

    #[test]
    fn requests_match_the_oracle_on_the_ties_of_equal_streams() {
        // Equal-length streams are due at identical times throughout: the
        // merge must resolve every tie by region index, as the heap did.
        let regions: Vec<Region> = (0..5u64)
            .map(|i| Region::read("r", i << 20, 128 * 7).encrypted(i % 2 == 0))
            .collect();
        let wl = regions
            .iter()
            .fold(Workload::builder("ties"), |b, r| b.region(r.clone()))
            .build()
            .unwrap();
        assert_eq!(wl.trace(128), oracle::trace(&regions, 128));
    }

    #[test]
    fn builder_validation() {
        assert!(Workload::builder("e").build().is_err());
        assert!(Workload::builder("e")
            .region(Region::read("a", 0, 128))
            .dram_efficiency(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn trace_is_deterministic() {
        let wl = Workload::builder("t")
            .region(Region::read("a", 0, 128 * 50))
            .region(Region::read("b", 1 << 20, 128 * 30))
            .build()
            .unwrap();
        assert_eq!(wl.trace(128), wl.trace(128));
    }
}
