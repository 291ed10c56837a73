//! Differential coherence checking: litmus catalogue + seeded fuzz sweeps
//! across coherence protocols × machine kinds × NoC models.
//!
//! ```text
//! coherence_check [--cores N] [--seeds N] [--seed-base S]
//!                 [--machines LIST] [--noc-models LIST]
//!                 [--protocols LIST|all]
//!                 [--litmus-only | --fuzz-only]
//!                 [--fuzz-rounds N] [--fuzz-ops N] [--jobs N] [--quiet]
//!                 [--fault skip-filter-invalidation|skip-directory-update]
//!                 [--write-golden DIR]
//! ```
//!
//! Every point runs a program (a directed litmus case or a seeded random
//! program) on a small machine with deliberately tiny filter/filterDir
//! structures, with value tracking on and the flat sequentially-consistent
//! reference memory armed: any load or DMA-read observing a value the
//! reference disagrees with is a divergence, printed with the op index,
//! core, address and the protocol state of the address, plus the exact
//! command line that reproduces it.
//!
//! `--fault` inverts the game: it injects the named protocol defect into
//! the backend it applies to (`skip-filter-invalidation` → filterDir,
//! `skip-directory-update` → the directory baseline) and *requires* the
//! oracle to catch it (exit 0 iff a divergence is found) — the proof that
//! the harness can fail, once per backend.
//!
//! `--protocols` multiplies the matrix by the coherence backend; the axis
//! only applies to the proposed machine (the other kinds have no guarded
//! protocol to swap), so `--protocols all` keeps cache-only/hybrid-ideal
//! points single.
//!
//! Exit codes: 0 when every point agrees with the reference (or, with
//! `--fault`, when the defect is caught); 1 when a divergence is found (or a
//! fault goes uncaught); 2 for malformed input — an unknown flag, a missing
//! or unparsable value, an empty axis list, or a selection with no point to
//! check — with the usage text on stderr.  `--help` prints the usage text
//! on stdout and exits 0.

use std::process::ExitCode;

use campaign::Executor;
use system::cli::{parse_or_exit, Args, CliError};
use system::verify::verification_config;
use system::{CoherenceProtocol, Machine, MachineKind, SystemConfig};
use workloads::litmus::{catalogue, random_program, FuzzParams, LitmusCase};
use workloads::RawKernel;

#[derive(Debug, Clone)]
enum Program {
    Litmus(&'static str),
    Fuzz(u64),
}

#[derive(Debug, Clone)]
struct Point {
    kind: MachineKind,
    noc: noc::NocModel,
    protocol: CoherenceProtocol,
    program: Program,
}

#[derive(Debug, Clone)]
struct Options {
    cores: usize,
    seeds: u64,
    seed_base: u64,
    machines: Vec<MachineKind>,
    noc_models: Vec<noc::NocModel>,
    protocols: Vec<CoherenceProtocol>,
    litmus: bool,
    fuzz: bool,
    fuzz_rounds: usize,
    fuzz_ops: usize,
    jobs: usize,
    quiet: bool,
    fault: Option<spm_coherence::ProtocolFault>,
    write_golden: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            cores: 4,
            seeds: 20,
            seed_base: 0,
            machines: MachineKind::ALL.to_vec(),
            noc_models: vec![noc::NocModel::Analytic, noc::NocModel::DiscreteEvent],
            protocols: vec![CoherenceProtocol::FilterDir],
            litmus: true,
            fuzz: true,
            fuzz_rounds: 4,
            fuzz_ops: 24,
            jobs: 0,
            quiet: false,
            fault: None,
            write_golden: None,
        }
    }
}

/// The `--help` text.  The axis value lists come from the canonical id
/// arrays, so the text cannot drift from what the parser accepts.
fn usage() -> String {
    format!(
        "\
coherence_check — differential coherence checking (litmus + seeded fuzz)

usage: coherence_check [options]

options (LIST = comma-separated values):
  --cores N           cores of the verification machine (default 4; the
                      litmus programs need at least 2)
  --seeds N           fuzz seeds per configuration (default 20)
  --seed-base S       first fuzz seed (default 0)
  --machines LIST     machine kinds: {machines} (default: all)
  --noc-models LIST   NoC models: {noc_models} (default: both)
  --protocols LIST    coherence protocols of the proposed machine:
                      {protocols}, or 'all' (default filterdir)
  --litmus-only       run the litmus catalogue only
  --fuzz-only         run the fuzz programs only
  --fuzz-rounds N     rounds per fuzz program (default 4)
  --fuzz-ops N        ops per core per fuzz round (default 24)
  --jobs N            parallel workers (default: available parallelism)
  --quiet             print divergences and the summary line only
  --fault NAME        inject skip-filter-invalidation or
                      skip-directory-update and require the oracle to
                      catch it
  --write-golden DIR  write the litmus final images to DIR
  --help              this text
",
        machines = MachineKind::ALL.map(MachineKind::id).join(", "),
        noc_models = noc::NocModel::ALL.map(noc::NocModel::id).join(", "),
        protocols = CoherenceProtocol::ALL.map(CoherenceProtocol::id).join(", "),
    )
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, CliError> {
    let mut o = Options::default();
    let mut args = Args::new(args);
    while let Some(flag) = args.next_arg()? {
        match flag.as_str() {
            "--cores" => o.cores = args.parse()?,
            "--seeds" => o.seeds = args.parse()?,
            "--seed-base" => o.seed_base = args.parse()?,
            "--machines" => {
                o.machines =
                    args.ids(MachineKind::from_id, &MachineKind::ALL.map(MachineKind::id))?
            }
            "--noc-models" => {
                o.noc_models = args.ids(
                    noc::NocModel::from_id,
                    &noc::NocModel::ALL.map(noc::NocModel::id),
                )?
            }
            "--protocols" => {
                o.protocols = match args.value()?.as_str() {
                    "all" => CoherenceProtocol::ALL.to_vec(),
                    list => args.ids_in(
                        list,
                        CoherenceProtocol::from_id,
                        &CoherenceProtocol::ALL.map(CoherenceProtocol::id),
                    )?,
                }
            }
            "--litmus-only" => o.fuzz = false,
            "--fuzz-only" => o.litmus = false,
            "--fuzz-rounds" => o.fuzz_rounds = args.parse()?,
            "--fuzz-ops" => o.fuzz_ops = args.parse()?,
            "--jobs" => o.jobs = args.parse()?,
            "--quiet" => o.quiet = true,
            "--fault" => match args.value()?.as_str() {
                "skip-filter-invalidation" => {
                    o.fault = Some(spm_coherence::ProtocolFault::SkipFilterInvalidationOnMap)
                }
                "skip-directory-update" => {
                    o.fault = Some(spm_coherence::ProtocolFault::SkipDirectoryUpdateOnMap)
                }
                other => return Err(format!("--fault: unknown fault '{other}'").into()),
            },
            "--write-golden" => o.write_golden = Some(args.value()?.into()),
            _ => return Err(args.unknown()),
        }
    }
    if o.cores == 0 {
        return Err("--cores: must be at least 1".to_owned().into());
    }
    if o.cores < 2 && o.litmus {
        return Err("--cores: litmus programs need at least 2 cores"
            .to_owned()
            .into());
    }
    // `--write-golden` and `--fault` run programs of their own; the regular
    // matrix must check at least one point.
    if o.write_golden.is_none() && o.fault.is_none() && points(&o).is_empty() {
        return Err("the selection names no point to check".to_owned().into());
    }
    Ok(o)
}

/// The regular matrix: litmus catalogue + fuzz seeds.  The protocol axis
/// only multiplies proposed-machine points; on the other kinds the
/// coherence backend is inert, so extra protocols would re-run the same
/// simulation.
fn points(o: &Options) -> Vec<Point> {
    let default_protocols = [CoherenceProtocol::FilterDir];
    let mut points = Vec::new();
    for &kind in &o.machines {
        let protocols: &[CoherenceProtocol] = if kind == MachineKind::HybridProposed {
            &o.protocols
        } else {
            &default_protocols
        };
        for &protocol in protocols {
            for &model in &o.noc_models {
                if o.litmus {
                    let runs_on = |case: &LitmusCase| case.build_for(kind.exec_mode()).is_some();
                    for case in catalogue().into_iter().filter(runs_on) {
                        points.push(Point {
                            kind,
                            noc: model,
                            protocol,
                            program: Program::Litmus(case.name),
                        });
                    }
                }
                if o.fuzz {
                    for s in 0..o.seeds {
                        points.push(Point {
                            kind,
                            noc: model,
                            protocol,
                            program: Program::Fuzz(o.seed_base + s),
                        });
                    }
                }
            }
        }
    }
    points
}

fn config_for(o: &Options, model: noc::NocModel, protocol: CoherenceProtocol) -> SystemConfig {
    let mut cfg = verification_config(o.cores);
    cfg.set_noc_model(model);
    cfg.coherence_protocol = protocol;
    cfg
}

/// The backend an injected fault applies to: the other backend is immune by
/// construction, so demonstrating "the harness can fail" must run the
/// defective one.
fn fault_protocol(fault: spm_coherence::ProtocolFault) -> CoherenceProtocol {
    match fault {
        spm_coherence::ProtocolFault::SkipFilterInvalidationOnMap => CoherenceProtocol::FilterDir,
        spm_coherence::ProtocolFault::SkipDirectoryUpdateOnMap => CoherenceProtocol::Directory,
    }
}

fn build_program(
    o: &Options,
    kind: MachineKind,
    program: &Program,
    cfg: &SystemConfig,
) -> RawKernel {
    match program {
        Program::Litmus(name) => {
            let case: LitmusCase = catalogue()
                .into_iter()
                .find(|c| c.name == *name)
                .expect("catalogue names are stable");
            let build = case
                .build_for(kind.exec_mode())
                .expect("points name only the cases with a form for the machine");
            build(o.cores, cfg.spm.size / 2)
        }
        Program::Fuzz(seed) => {
            let params = FuzzParams {
                cores: o.cores,
                buffer_size: cfg.spm.size / 2,
                rounds: o.fuzz_rounds,
                ops_per_round: o.fuzz_ops,
                mode: kind.exec_mode(),
            };
            random_program(*seed, &params)
        }
    }
}

fn repro_hint(o: &Options, p: &Point) -> String {
    let program = match &p.program {
        Program::Litmus(_) => "--litmus-only".to_owned(),
        Program::Fuzz(seed) => format!("--fuzz-only --seeds 1 --seed-base {seed}"),
    };
    format!(
        "cargo run --release -p system --bin coherence_check -- \
         --cores {} --machines {} --noc-models {} --protocols {} \
         --fuzz-rounds {} --fuzz-ops {} {program}",
        o.cores,
        p.kind.id(),
        p.noc.id(),
        p.protocol.id(),
        o.fuzz_rounds,
        o.fuzz_ops,
    )
}

fn write_golden(o: &Options, dir: &std::path::Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let cfg = config_for(o, noc::NocModel::Analytic, CoherenceProtocol::FilterDir);
    for case in catalogue() {
        let program = (case.build)(o.cores, cfg.spm.size / 2);
        let outcome = Machine::new(MachineKind::HybridProposed, cfg.clone()).verify_raw(&program);
        if !outcome.ok() {
            return Err(format!(
                "litmus {} diverges; refusing to write golden:\n{}",
                case.name,
                outcome.divergence_report()
            ));
        }
        let path = dir.join(format!("{}.txt", case.name));
        std::fs::write(&path, outcome.image.render())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {path:?} ({})", outcome.image);
    }
    Ok(())
}

fn main() -> ExitCode {
    let o = parse_or_exit("coherence_check", &usage(), std::env::args().skip(1), parse);

    if let Some(dir) = &o.write_golden {
        return match write_golden(&o, dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("coherence_check: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // The fault demo checks the negative property: the injected defect MUST
    // be caught by the oracle on its designated litmus victim.
    if let Some(fault) = o.fault {
        let protocol = fault_protocol(fault);
        let mut caught = 0usize;
        let mut missed = Vec::new();
        for &model in &o.noc_models {
            let cfg = config_for(&o, model, protocol);
            let program = build_program(
                &o,
                MachineKind::HybridProposed,
                &Program::Litmus("stale_filter_after_map"),
                &cfg,
            );
            let outcome = Machine::new(MachineKind::HybridProposed, cfg)
                .with_fault(fault)
                .verify_raw(&program);
            if outcome.ok() {
                missed.push(model.id());
            } else {
                caught += 1;
                if !o.quiet {
                    println!(
                        "fault caught under {}/{}:\n{}",
                        model.id(),
                        protocol.id(),
                        outcome.divergence_report()
                    );
                }
            }
        }
        return if missed.is_empty() && caught > 0 {
            println!(
                "fault injection ({}): caught in {caught}/{caught} configurations — the harness can fail",
                protocol.id()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!("fault injection NOT caught under: {missed:?}");
            ExitCode::FAILURE
        };
    }

    let points = points(&o);
    let executor = Executor::new(o.jobs);
    let results = executor.run(&points, |_, p| {
        let cfg = config_for(&o, p.noc, p.protocol);
        let program = build_program(&o, p.kind, &p.program, &cfg);
        let outcome = Machine::new(p.kind, cfg).verify_raw(&program);
        (p.clone(), program.name.clone(), outcome)
    });

    let mut failures = 0usize;
    let mut checked_loads = 0u64;
    let mut checked_words = 0u64;
    for (p, name, outcome) in &results {
        checked_loads += outcome.report.loads_checked;
        checked_words += outcome.report.dma_words_checked;
        if !outcome.ok() {
            failures += 1;
            eprintln!(
                "DIVERGENCE: {name} on {} / {} / {}\n{}\nreproduce: {}",
                p.kind.id(),
                p.noc.id(),
                p.protocol.id(),
                outcome.divergence_report(),
                repro_hint(&o, p),
            );
        } else if !o.quiet {
            println!(
                "ok: {name:<28} {:<15} {:<14} {:<10} {}",
                p.kind.id(),
                p.noc.id(),
                p.protocol.id(),
                outcome.report.summary()
            );
        }
    }
    println!(
        "coherence_check: {} points, {checked_loads} loads + {checked_words} dma words checked, {failures} divergent",
        results.len()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
