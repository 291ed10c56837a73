//! Property-based tests (proptest) on the core data structures and protocol
//! invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use spm_manycore::coherence::{
    AddressMasks, CoherenceBackend, Filter, FilterDir, ProtocolConfig, SpmCoherenceProtocol, SpmDir,
};
use spm_manycore::mem::mshr::{MshrFile, MshrOutcome};
use spm_manycore::mem::plru::TreePlru;
use spm_manycore::mem::{
    Addr, AddressRange, CacheBank, CacheConfig, LineAddr, MemorySystem, MemorySystemConfig,
};
use spm_manycore::noc::{MeshTopology, MessageClass, Noc, NocConfig};
use spm_manycore::simkernel::{ByteSize, CoreId, Cycle, SimRng};
use spm_manycore::spm::{Scratchpad, SpmAddressMap, SpmConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Address decomposition always recomposes and the offset stays below the
    /// granularity, for any buffer size and address.
    #[test]
    fn masks_decompose_and_recompose(buffer_kib in 1u64..512, raw in any::<u64>()) {
        let masks = AddressMasks::for_buffer_size(ByteSize::kib(buffer_kib));
        let addr = Addr::new(raw);
        let (base, offset) = masks.decompose(addr);
        prop_assert_eq!(base.raw().wrapping_add(offset), raw);
        prop_assert!(offset < masks.granularity());
        prop_assert_eq!(base.raw() % masks.granularity(), 0);
    }

    /// The SPM address map partitions the window: every SPM address belongs to
    /// exactly one core and translation is a bijection on the window.
    #[test]
    fn spm_address_map_partitions_the_window(cores in 1usize..64, offset in 0u64..(32 * 1024)) {
        let map = SpmAddressMap::new(cores, ByteSize::kib(32));
        for core in 0..cores {
            let addr = map.spm_addr(CoreId::new(core), offset);
            prop_assert!(map.is_spm_addr(addr));
            prop_assert_eq!(map.owner_of(addr), Some(CoreId::new(core)));
            prop_assert_eq!(map.offset_of(addr), Some(offset));
            let phys = map.translate(addr).expect("inside the window");
            prop_assert_eq!(phys - map.translate(map.spm_addr(CoreId::new(core), 0)).unwrap(), offset);
        }
    }

    /// XY routing on the mesh: hop count is symmetric, bounded by the
    /// diameter, and the route length always equals hops + 1.
    #[test]
    fn mesh_routing_invariants(cores in 1usize..=64, a in 0usize..64, b in 0usize..64) {
        let mesh = MeshTopology::square_for(cores);
        let a = simkernel_node(a % mesh.nodes());
        let b = simkernel_node(b % mesh.nodes());
        prop_assert_eq!(mesh.hops(a, b), mesh.hops(b, a));
        prop_assert!(mesh.hops(a, b) <= mesh.diameter());
        let route = mesh.route(a, b);
        prop_assert_eq!(route.len() as u64, mesh.hops(a, b) + 1);
        prop_assert_eq!(route.first().copied(), Some(a));
        prop_assert_eq!(route.last().copied(), Some(b));
    }

    /// The cache never holds more lines than its capacity and an inserted line
    /// is always resident immediately afterwards.
    #[test]
    fn cache_occupancy_never_exceeds_capacity(lines in vec(0u64..4096, 1..400)) {
        let config = CacheConfig::new("prop", ByteSize::kib(4), 4, Cycle::new(2));
        let capacity = config.lines() as usize;
        // A one-unit bank is a single cache.
        let mut cache: CacheBank<u8> = CacheBank::new(&config, 1);
        for (i, line) in lines.iter().enumerate() {
            cache.insert(0, LineAddr::new(*line), i as u8);
            prop_assert!(cache.contains(0, LineAddr::new(*line)));
            prop_assert!(cache.occupancy() <= capacity);
        }
    }

    /// Filter invariant: after any sequence of inserts/invalidates, a lookup
    /// hit implies the address was inserted and not invalidated since, and
    /// occupancy never exceeds the capacity.
    #[test]
    fn filter_behaves_like_a_bounded_set(ops in vec((0u64..64, any::<bool>()), 1..300)) {
        let mut filter = Filter::new(16);
        for (chunk, insert) in ops {
            let base = Addr::new(chunk * 0x4000);
            if insert {
                filter.insert(base);
                prop_assert!(filter.probe(base));
            } else {
                filter.invalidate(base);
                prop_assert!(!filter.probe(base));
            }
            prop_assert!(filter.occupancy() <= 16);
        }
    }

    /// filterDir sharer lists only ever contain cores that looked an address
    /// up or inserted it, and invalidation returns them all.
    #[test]
    fn filterdir_tracks_sharers_exactly(sharers in vec(0usize..16, 1..40)) {
        let mut fd = FilterDir::new(256, 16);
        let base = Addr::new(0xABC0_0000);
        let mut expected: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for (i, s) in sharers.iter().enumerate() {
            if i == 0 {
                fd.insert(base, CoreId::new(*s));
            } else {
                // Either path registers the sharer.
                if !fd.lookup_and_share(base, CoreId::new(*s)) {
                    fd.insert(base, CoreId::new(*s));
                }
            }
            expected.insert(*s);
        }
        let mut reported: Vec<usize> = fd.invalidate(base).unwrap_or_default().iter().map(|c| c.index()).collect();
        reported.sort_unstable();
        let expected: Vec<usize> = expected.into_iter().collect();
        prop_assert_eq!(reported, expected);
    }

    /// The SPMDir maps buffers to chunks one-to-one: looking up any mapped
    /// chunk returns the buffer it was last mapped to.
    #[test]
    fn spmdir_is_a_one_to_one_mapping(maps in vec((0usize..32, 0u64..64), 1..100)) {
        let mut dir = SpmDir::new(32);
        let mut model: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for (buffer, chunk) in maps {
            let base = Addr::new(chunk * 0x8000);
            dir.map(buffer, base);
            model.insert(buffer, chunk);
            // The chunk must now be resolvable to *a* buffer holding it
            // (several buffers may legitimately map the same chunk).
            let found = dir.probe(base).expect("freshly mapped chunk must be found");
            prop_assert_eq!(dir.mapped_base(found), Some(base));
        }
        for (buffer, chunk) in &model {
            let base = Addr::new(chunk * 0x8000);
            // Every buffer still holds exactly what the model says it holds.
            prop_assert_eq!(dir.mapped_base(*buffer), Some(base));
            prop_assert!(dir.probe(base).is_some());
        }
    }

    /// NoC latency is monotone in distance and every sent packet is accounted.
    #[test]
    fn noc_accounts_every_packet(sends in vec((0usize..16, 0usize..16, any::<bool>()), 1..100)) {
        let mut noc = Noc::new(NocConfig::isca2015(16));
        for (i, (from, to, big)) in sends.iter().enumerate() {
            let bytes = if *big { 64 } else { 8 };
            let _ = noc.send(
                simkernel_node(*from),
                simkernel_node(*to),
                MessageClass::Read,
                bytes,
            );
            prop_assert_eq!(noc.traffic().total_packets(), (i + 1) as u64);
        }
        prop_assert_eq!(noc.traffic().packets(MessageClass::Read), sends.len() as u64);
    }

    /// Protocol invariant: a guarded access to a chunk mapped by some core is
    /// always diverted to that core's SPM, and to global memory otherwise.
    #[test]
    fn guarded_accesses_always_reach_the_valid_copy(
        mapped_chunks in vec(0u64..32, 1..8),
        probe_chunk in 0u64..32,
        is_write in any::<bool>(),
    ) {
        let cores = 4;
        let mut memsys = MemorySystem::new(MemorySystemConfig::small(cores));
        let mut spms: Vec<Scratchpad> = (0..cores).map(|_| Scratchpad::new(SpmConfig::small())).collect();
        let mut protocol = SpmCoherenceProtocol::new(ProtocolConfig::small(cores));
        protocol.configure_buffer_size(ByteSize::kib(4));

        let chunk_base = |c: u64| Addr::new(0x100_0000 + c * 4096);
        let mut owner_of = std::collections::HashMap::new();
        for (i, chunk) in mapped_chunks.iter().enumerate() {
            // Use a distinct (core, buffer) slot per mapping so no mapping is
            // overwritten (the runtime library never double-books a buffer
            // within one control phase).
            let owner = CoreId::new(i % cores);
            let buffer = i / cores;
            protocol.on_map(owner, buffer, AddressRange::new(chunk_base(*chunk), 4096), &mut memsys);
            owner_of.insert(*chunk, owner);
        }

        let outcome = protocol.guarded_access(
            CoreId::new(3),
            chunk_base(probe_chunk) + 128,
            is_write,
            &mut memsys,
            &mut spms,
        );
        match owner_of.get(&probe_chunk) {
            Some(_) => prop_assert!(outcome.diverted_to_spm(), "mapped chunk must be diverted"),
            None => prop_assert!(outcome.served_by_global_memory(), "unmapped chunk must reach GM"),
        }
    }

    /// The deterministic RNG produces identical streams for identical seeds
    /// and stays inside requested ranges.
    #[test]
    fn rng_is_deterministic_and_bounded(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            let x = a.gen_range(lo..lo + span);
            let y = b.gen_range(lo..lo + span);
            prop_assert_eq!(x, y);
            prop_assert!((lo..lo + span).contains(&x));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MSHR invariants under arbitrary register/retire sequences, checked
    /// against a model set: an outcome is `Merged` iff the line was already
    /// outstanding, `Full` iff the file was at capacity, occupancy never
    /// exceeds the capacity, and the bookkeeping counters add up.
    #[test]
    fn mshr_allocation_and_merge_invariants(
        capacity in 1usize..=16,
        ops in vec((0u64..24, 0u64..64, any::<bool>()), 1..200),
    ) {
        let mut mshr = MshrFile::new(capacity);
        let mut model: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut registers = 0u64;
        for (line, ready, is_register) in ops {
            let line_addr = LineAddr::new(line);
            if is_register {
                registers += 1;
                let outcome = mshr.register(line_addr, Cycle::new(ready));
                let expected = if model.contains(&line) {
                    MshrOutcome::Merged
                } else if model.len() >= capacity {
                    MshrOutcome::Full
                } else {
                    model.insert(line);
                    MshrOutcome::Allocated
                };
                prop_assert_eq!(outcome, expected);
            } else {
                prop_assert_eq!(mshr.retire(line_addr), model.remove(&line));
            }
            prop_assert_eq!(mshr.outstanding(), model.len());
            prop_assert!(mshr.outstanding() <= capacity);
            prop_assert_eq!(mshr.is_full(), model.len() >= capacity);
            for l in &model {
                prop_assert!(mshr.is_outstanding(LineAddr::new(*l)));
            }
        }
        prop_assert_eq!(mshr.allocations() + mshr.merges() + mshr.full_stalls(), registers);
        prop_assert!(mshr.allocations() >= mshr.outstanding() as u64);
    }

    /// Tree-PLRU invariants for every power-of-two associativity: the victim
    /// is always a currently-resident way (i.e. a valid index into the set),
    /// and with at least two ways it is never the way that was just touched.
    #[test]
    fn plru_victim_is_always_a_resident_way(
        ways_log2 in 0u32..=5,
        touches in vec(0usize..32, 1..200),
    ) {
        let ways = 1usize << ways_log2;
        let mut plru = TreePlru::new(ways);
        prop_assert!(plru.victim() < ways);
        for t in touches {
            let way = t % ways;
            plru.touch(way);
            let victim = plru.victim();
            prop_assert!(victim < ways, "victim {victim} outside {ways}-way set");
            if ways > 1 {
                prop_assert!(victim != way, "victim must not be the MRU way");
            }
        }
    }

    /// SPM address-map round-trip: `spm_addr` composed with
    /// `owner_of`/`offset_of` is the identity, physical translation preserves
    /// the offset within the window, and addresses outside the window are
    /// rejected by every query.
    #[test]
    fn spm_address_map_round_trips(
        cores in 1usize..=64,
        spm_kib in 1u64..=64,
        core_index in 0usize..64,
        offset in any::<u64>(),
        outside in any::<u64>(),
    ) {
        let spm_size = ByteSize::kib(spm_kib);
        let map = SpmAddressMap::new(cores, spm_size);
        let core = CoreId::new(core_index % cores);
        let offset = offset % spm_size.bytes();

        // Virtual round-trip.
        let vaddr = map.spm_addr(core, offset);
        prop_assert!(map.is_spm_addr(vaddr));
        prop_assert!(map.is_local(core, vaddr));
        prop_assert_eq!(map.owner_of(vaddr), Some(core));
        prop_assert_eq!(map.offset_of(vaddr), Some(offset));

        // Physical translation is the direct mapping of Figure 2: the offset
        // from the window base is preserved exactly.
        let window_base = map.global_range().start();
        let phys = map.translate(vaddr).expect("inside the window");
        let phys_base = map.translate(window_base).expect("window base translates");
        prop_assert_eq!(phys - phys_base, vaddr - window_base);

        // Addresses outside the reserved window are rejected everywhere.
        let global = map.global_range();
        let stray = Addr::new(outside);
        if !global.contains(stray) {
            prop_assert!(!map.is_spm_addr(stray));
            prop_assert_eq!(map.owner_of(stray), None);
            prop_assert_eq!(map.offset_of(stray), None);
            prop_assert_eq!(map.translate(stray), None);
        }
    }
}

/// Helper: build a `NodeId` (proptest closures cannot capture the type alias
/// ergonomically).
fn simkernel_node(i: usize) -> spm_manycore::simkernel::NodeId {
    spm_manycore::simkernel::NodeId::new(i)
}
