//! OS page-frame allocation with per-region free lists (paper §3.1.1: the
//! OS keeps track of free M1 and M2 physical page frames per region and
//! allocates frames of the private regions to their respective programs
//! only).

use profess_rng::Rng;
use profess_types::geometry::Geometry;
use profess_types::ids::ProgramId;

use crate::regions::RegionMap;

/// Frame allocator over the original physical address space.
///
/// A *frame* is one 4 KB page = two 2 KB blocks in two consecutive swap
/// groups (same region by construction). Frames are handed out uniformly
/// at random over the regions a program may use, which models an
/// unfragmented OS allocator and keeps the per-region access distribution
/// as uniform as the program's access pattern allows (the premise of the
/// paper's §3.1.3 sampling analysis).
#[derive(Debug)]
pub struct FrameAllocator {
    free_by_region: Vec<Vec<u64>>,
    owner_by_block: Vec<Option<ProgramId>>,
    region_map: RegionMap,
    rng: Rng,
    allocated: u64,
    total_frames: u64,
}

impl FrameAllocator {
    /// Builds the allocator for the whole original address space.
    pub fn new(geom: &Geometry, region_map: RegionMap, seed: u64) -> Self {
        let total_pages = geom.total_pages();
        let num_regions = region_map.num_regions() as usize;
        let groups = geom.num_groups();
        let mut free_by_region: Vec<Vec<u64>> = vec![Vec::new(); num_regions];
        for pf in 0..total_pages {
            let first_block = geom.page_first_block(pf);
            let (group, _) = geom.block_to_group_slot(first_block);
            let region = geom.region_of(group);
            free_by_region[region.index()].push(pf);
        }
        let mut rng = Rng::seed_from_u64(seed ^ 0x51AB_17EF);
        // Shuffle each free list so allocation order does not correlate
        // with address order (and thus with M1/M2 original placement).
        for list in &mut free_by_region {
            rng.shuffle(list);
        }
        FrameAllocator {
            free_by_region,
            owner_by_block: vec![None; geom.total_blocks() as usize],
            region_map,
            rng,
            allocated: 0,
            total_frames: total_pages,
        }
        .validate(groups)
    }

    fn validate(self, groups: u64) -> Self {
        debug_assert!(groups > 0);
        self
    }

    /// Allocates a frame for `program`, choosing uniformly among the free
    /// frames of its allowed regions. Returns the page-frame index.
    ///
    /// Returns `None` only when every allowed region is exhausted.
    pub fn allocate(&mut self, program: ProgramId, geom: &Geometry) -> Option<u64> {
        let mut total: usize = 0;
        for (r, list) in self.free_by_region.iter().enumerate() {
            if self
                .region_map
                .may_allocate(program, profess_types::RegionId(r as u16))
            {
                total += list.len();
            }
        }
        if total == 0 {
            return None;
        }
        let mut pick = self.rng.gen_range(0..total);
        for (r, list) in self.free_by_region.iter_mut().enumerate() {
            if !self
                .region_map
                .may_allocate(program, profess_types::RegionId(r as u16))
            {
                continue;
            }
            if pick < list.len() {
                // The lists are shuffled; popping the last element after a
                // swap keeps removal O(1) and uniform.
                let last = list.len() - 1;
                list.swap(pick, last);
                // profess: allow(panic): guarded by `pick < list.len()` just above
                let frame = list.pop().expect("non-empty list");
                let first_block = geom.page_first_block(frame);
                for b in 0..geom.blocks_per_page() {
                    self.owner_by_block[(first_block + b) as usize] = Some(program);
                }
                self.allocated += 1;
                return Some(frame);
            }
            pick -= list.len();
        }
        // profess: allow(panic_reachability): pick is drawn below the summed free-list lengths, so one list must absorb it
        unreachable!("pick within total free count");
    }

    /// The program owning an original block, if allocated.
    #[inline]
    pub fn owner_of_block(&self, block: u64) -> Option<ProgramId> {
        self.owner_by_block[block as usize]
    }

    /// Number of frames allocated so far.
    pub fn allocated_frames(&self) -> u64 {
        self.allocated
    }

    /// Total frames in the system.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// The region map in force.
    pub fn region_map(&self) -> &RegionMap {
        &self.region_map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profess_types::ids::SlotIdx;

    fn geom() -> Geometry {
        Geometry::new(2048, 64, 4096, 2, 8 << 20, 8, 128, 16, 8192, 8)
    }

    #[test]
    fn allocates_unique_frames_with_owners() {
        let g = geom();
        let mut a = FrameAllocator::new(&g, RegionMap::all_shared(128), 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let f = a.allocate(ProgramId(0), &g).expect("space available");
            assert!(seen.insert(f), "frame {f} allocated twice");
            let b0 = g.page_first_block(f);
            assert_eq!(a.owner_of_block(b0), Some(ProgramId(0)));
            assert_eq!(a.owner_of_block(b0 + 1), Some(ProgramId(0)));
        }
        assert_eq!(a.allocated_frames(), 1000);
    }

    #[test]
    fn private_regions_reserved_for_owner() {
        let g = geom();
        let map = RegionMap::with_private_regions(128, 4);
        let mut a = FrameAllocator::new(&g, map, 2);
        // Allocate everything program 1 may take.
        let mut frames = Vec::new();
        while let Some(f) = a.allocate(ProgramId(1), &g) {
            frames.push(f);
        }
        // Program 1 never received frames from regions 0, 2, 3.
        for &f in &frames {
            let (group, _) = g.block_to_group_slot(g.page_first_block(f));
            let r = g.region_of(group);
            assert!(
                r.0 == 1 || r.0 >= 4,
                "frame from foreign private region {r:?}"
            );
        }
        // Other programs' private regions remain fully free: program 0 can
        // still allocate its private region's worth.
        let mut zero_private = 0;
        while let Some(f) = a.allocate(ProgramId(0), &g) {
            let (group, _) = g.block_to_group_slot(g.page_first_block(f));
            assert_eq!(g.region_of(group).0, 0);
            zero_private += 1;
        }
        // Region 0: total frames / 128 regions.
        assert_eq!(zero_private, (g.total_pages() / 128) as usize);
    }

    #[test]
    fn frames_spread_over_m1_and_m2_originals() {
        let g = geom();
        let mut a = FrameAllocator::new(&g, RegionMap::all_shared(128), 3);
        let mut m1 = 0;
        let mut m2 = 0;
        for _ in 0..2000 {
            let f = a.allocate(ProgramId(0), &g).expect("space");
            let (_, slot) = g.block_to_group_slot(g.page_first_block(f));
            if slot == SlotIdx::M1 {
                m1 += 1;
            } else {
                m2 += 1;
            }
        }
        // ~1/9 of frames are M1-original.
        let frac = m1 as f64 / (m1 + m2) as f64;
        assert!(
            (frac - 1.0 / 9.0).abs() < 0.04,
            "M1-original fraction {frac}"
        );
    }

    #[test]
    fn exhaustion_returns_none() {
        let g = geom();
        let mut a = FrameAllocator::new(&g, RegionMap::all_shared(128), 4);
        let mut n = 0u64;
        while a.allocate(ProgramId(0), &g).is_some() {
            n += 1;
        }
        assert_eq!(n, g.total_pages());
        assert!(a.allocate(ProgramId(1), &g).is_none());
    }
}
