//! Property-based tests (proptest) on the core data structures and protocol
//! invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use spm_manycore::coherence::{
    AddressMasks, CoherenceBackend, DirectoryCoherence, Filter, FilterDir, GuardedTarget,
    IdealCoherence, ProtocolConfig, SpmCoherenceProtocol, SpmDir,
};
use spm_manycore::mem::plru::TreePlru;
use spm_manycore::mem::{
    Addr, AddressRange, CacheBank, CacheConfig, LineAddr, MemorySystem, MemorySystemConfig,
    ServedBy,
};
use spm_manycore::noc::{MeshTopology, MessageClass, Noc, NocConfig};
use spm_manycore::simkernel::{ByteSize, CoreId, Cycle, SimRng};
use spm_manycore::spm::{Scratchpad, SpmConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An address's base is aligned to the granularity and the address lies
    /// in `[base, base + granularity)`, for any buffer size and address.
    #[test]
    fn masks_decompose_and_recompose(buffer_kib in 1u64..512, raw in any::<u64>()) {
        let masks = AddressMasks::for_buffer_size(ByteSize::kib(buffer_kib));
        let base = masks.base(Addr::new(raw)).raw();
        prop_assert_eq!(base % masks.granularity(), 0);
        prop_assert!(base <= raw && raw - base < masks.granularity());
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

    /// The three coherence backends send every guarded access to the same
    /// place: the same `GuardedTarget` variant, the same local buffer and
    /// the same remote owner (only the serving cache level may differ).
    /// Each core maps chunks only from its own address region, as the
    /// compiler's partitioning guarantees, and a chunk always goes to the
    /// same buffer.
    #[test]
    fn backends_agree_on_where_each_guarded_access_goes(
        cores in 1usize..=8,
        size_pick in 0usize..4,
        ops in vec(
            (0u8..8, 0usize..8, 0u64..8, (0usize..8, 0u64..16384, any::<bool>())),
            1..120,
        ),
    ) {
        let buffer_size = [
            ByteSize::kib(2),
            ByteSize::kib(4),
            ByteSize::bytes_exact(10922),
            ByteSize::kib(16),
        ][size_pick];
        let buffers = 4;
        // Core `core`'s region starts at (core + 1) * 16 MiB.
        let chunk = |core: usize, c: u64| {
            Addr::new(0x100_0000 * (core as u64 + 1) + c * buffer_size.bytes())
        };
        let config = ProtocolConfig::small(cores);
        let mut backends: Vec<(Box<dyn CoherenceBackend>, MemorySystem, Vec<Scratchpad>)> = vec![
            Box::new(SpmCoherenceProtocol::new(config.clone())) as Box<dyn CoherenceBackend>,
            Box::new(DirectoryCoherence::new(config.clone())),
            Box::new(IdealCoherence::new(config)),
        ]
        .into_iter()
        .map(|backend| {
            let memsys = MemorySystem::new(MemorySystemConfig::small(cores));
            let spms = (0..cores).map(|_| Scratchpad::new(SpmConfig::small())).collect();
            (backend, memsys, spms)
        })
        .collect();
        for (backend, _, _) in &mut backends {
            backend.configure_buffer_size(buffer_size);
        }

        for (kind, core, c, (region, offset, is_write)) in ops {
            let core = core % cores;
            let core_id = CoreId::new(core);
            let mut targets = Vec::new();
            for (backend, memsys, spms) in &mut backends {
                match kind {
                    0 | 1 => {
                        let range = AddressRange::new(chunk(core, c), buffer_size.bytes());
                        let _ = backend.on_map(core_id, c as usize % buffers, range, memsys);
                    }
                    2 => {
                        let _ = backend.on_unmap(core_id, c as usize % buffers);
                    }
                    3 => backend.on_loop_end(core_id),
                    _ => {
                        let addr = chunk(region % cores, c) + offset % buffer_size.bytes();
                        let outcome = backend.guarded_access(core_id, addr, is_write, memsys, spms);
                        targets.push(match outcome.target {
                            GuardedTarget::GlobalMemory { .. } => {
                                GuardedTarget::GlobalMemory { served_by: ServedBy::L1 }
                            }
                            diverted => diverted,
                        });
                    }
                }
            }
            if let Some(first) = targets.first() {
                for other in &targets[1..] {
                    prop_assert_eq!(other, first, "backends disagree");
                }
            }
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
}

/// Helper: build a `NodeId` (proptest closures cannot capture the type alias
/// ergonomically).
fn simkernel_node(i: usize) -> spm_manycore::simkernel::NodeId {
    spm_manycore::simkernel::NodeId::new(i)
}
