//! `ladm-fuzz` — differential fuzzing of the optimized engine against
//! the oracle simulator.
//!
//! ```text
//! ladm-fuzz [--seed N] [--trials N] [--sessions N] [--out DIR]
//! ladm-fuzz --replay FILE [--replay FILE ...]
//! ladm-fuzz --corpus DIR
//! ladm-fuzz --dump TRIAL [--seed N]
//! ladm-fuzz --dump-session TRIAL [--seed N]
//! ```
//!
//! Default mode samples `--trials` random trials from `--seed` and runs
//! each through the full differential harness
//! ([`ladm_fuzz::run_trial`]), then `--sessions` random multi-launch
//! session trials through the session harness
//! ([`ladm_fuzz::run_session_trial`]: engine vs oracle with pinning on
//! and off, plus adoption transparency) and reports how many compared
//! launches moved, migrated or faulted pages. On the first failure it
//! prints a JSON failure report to stdout, writes the reproducer (a
//! corpus-format spec, greedily shrunk for single-launch trials) under
//! `--out`, and exits 1. `--replay`/`--corpus` re-run saved specs of either schema;
//! `--dump`/`--dump-session` print a trial's spec JSON for seeding the
//! checked-in corpus.

use ladm_fuzz::corpus::{self, AnySpec};
use ladm_fuzz::diff::Failure;
use ladm_fuzz::{run_session_trial, run_trial, session_spec, trial_spec, SessionSpec, TrialSpec};
use ladm_obs::json::escape;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 0u64;
    let mut trials = 200u64;
    let mut sessions = 0u64;
    let mut sessions_set = false;
    let mut out_dir = "fuzz-failures".to_string();
    let mut replays: Vec<String> = Vec::new();
    let mut corpus_dir: Option<String> = None;
    let mut dump: Option<u64> = None;
    let mut dump_session: Option<u64> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = parse_num(it.next(), "--seed"),
            "--trials" => trials = parse_num(it.next(), "--trials"),
            "--sessions" => {
                sessions = parse_num(it.next(), "--sessions");
                sessions_set = true;
            }
            "--out" => out_dir = it.next().unwrap_or_else(|| usage("--out needs a path")),
            "--replay" => {
                replays.push(it.next().unwrap_or_else(|| usage("--replay needs a path")));
            }
            "--corpus" => {
                corpus_dir = Some(it.next().unwrap_or_else(|| usage("--corpus needs a path")));
            }
            "--dump" => dump = Some(parse_num(it.next(), "--dump")),
            "--dump-session" => dump_session = Some(parse_num(it.next(), "--dump-session")),
            "-h" | "--help" => usage(""),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    // `--sessions N` alone means "run only session trials".
    if sessions_set && trials == 200 {
        trials = 0;
    }

    if let Some(trial) = dump {
        print!("{}", corpus::render(&trial_spec(seed, trial)));
        return;
    }
    if let Some(trial) = dump_session {
        print!("{}", corpus::render_session(&session_spec(seed, trial)));
        return;
    }

    // Shrinking re-runs failing (often panicking) trials hundreds of
    // times; keep stderr clean and capture messages via catch_unwind.
    std::panic::set_hook(Box::new(|_| {}));

    if let Some(dir) = corpus_dir {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| {
                eprintln!("{dir}: cannot read: {e}");
                std::process::exit(1);
            })
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("json"))
            .collect();
        entries.sort();
        if entries.is_empty() {
            eprintln!("{dir}: no .json corpus entries");
            std::process::exit(1);
        }
        replays.extend(entries.into_iter().map(|p| p.display().to_string()));
    }

    if !replays.is_empty() {
        let mut failed = 0usize;
        for path in &replays {
            match replay_file(path) {
                Ok(()) => println!("{path}: OK"),
                Err(msg) => {
                    println!("{path}: FAILED\n{msg}");
                    failed += 1;
                }
            }
        }
        println!("replayed {} spec(s), {failed} failure(s)", replays.len());
        std::process::exit(if failed == 0 { 0 } else { 1 });
    }

    for trial in 0..trials {
        let spec = trial_spec(seed, trial);
        if let Err(failure) = run_trial(&spec) {
            report_failure(seed, trial, &spec, &failure, &out_dir);
            std::process::exit(1);
        }
        if (trial + 1) % 100 == 0 {
            eprintln!("... {}/{trials} trials clean", trial + 1);
        }
    }
    // Launches the session differential compared, and how many of them
    // moved pages on a replan, migrated pages, or took first-touch faults.
    let (mut launches, mut moved, mut migrated, mut faulted) = (0u64, 0u64, 0u64, 0u64);
    for trial in 0..sessions {
        let spec = session_spec(seed, trial);
        match run_session_trial(&spec) {
            Ok(runs) => {
                for r in &runs {
                    launches += 1;
                    moved += u64::from(r.replaced_pages > 0);
                    migrated += u64::from(r.stats.page_migrations > 0);
                    faulted += u64::from(r.stats.page_faults > 0);
                }
            }
            Err(failure) => {
                report_session_failure(seed, trial, &spec, &failure, &out_dir);
                std::process::exit(1);
            }
        }
        if (trial + 1) % 100 == 0 {
            eprintln!("... {}/{sessions} session trials clean", trial + 1);
        }
    }
    if sessions > 0 {
        println!(
            "session launches compared with the oracle: {launches} \
             ({moved} moved pages, {migrated} migrated pages, {faulted} took page faults)"
        );
    }
    println!(
        "{trials} trials + {sessions} session trials, zero divergences, \
         zero property violations (seed {seed})"
    );
}

fn replay_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    match corpus::parse_any(&text)? {
        AnySpec::Trial(spec) => run_trial(&spec).map(|_| ()).map_err(|f| f.to_string()),
        AnySpec::Session(spec) => run_session_trial(&spec)
            .map(|_| ())
            .map_err(|f| f.to_string()),
    }
}

fn report_failure(seed: u64, trial: u64, spec: &TrialSpec, failure: &Failure, out_dir: &str) {
    eprintln!(
        "trial {trial} (seed {seed}) failed: {}; shrinking...",
        failure.kind()
    );
    let small = ladm_fuzz::shrink::shrink(spec, failure);
    let small_failure = match run_trial(&small) {
        Err(f) => f,
        Ok(_) => failure.clone(), // cannot happen: shrink only keeps failing specs
    };
    let repro = corpus::render(&small);
    let repro_path = format!("{out_dir}/repro-seed{seed}-trial{trial}.json");
    if std::fs::create_dir_all(out_dir).is_ok() {
        let _ = std::fs::write(&repro_path, &repro);
    }
    println!(
        "{{\n  \"seed\": {seed},\n  \"trial\": {trial},\n  \"kind\": \"{}\",\n  \
         \"detail\": \"{}\",\n  \"sites\": {},\n  \"reproducer\": \"{}\",\n  \"spec\": {}}}",
        small_failure.kind(),
        escape(&small_failure.to_string()),
        small.sites.len(),
        escape(&repro_path),
        repro.trim_end()
    );
}

fn report_session_failure(
    seed: u64,
    trial: u64,
    spec: &SessionSpec,
    failure: &Failure,
    out_dir: &str,
) {
    // Session specs are not shrunk: the interesting structure (which
    // launches share which pool slots) is exactly what shrinking would
    // destroy, and the specs are small to begin with.
    let repro = corpus::render_session(spec);
    let repro_path = format!("{out_dir}/repro-session-seed{seed}-trial{trial}.json");
    if std::fs::create_dir_all(out_dir).is_ok() {
        let _ = std::fs::write(&repro_path, &repro);
    }
    println!(
        "{{\n  \"seed\": {seed},\n  \"trial\": {trial},\n  \"kind\": \"{}\",\n  \
         \"detail\": \"{}\",\n  \"launches\": {},\n  \"reproducer\": \"{}\",\n  \"spec\": {}}}",
        failure.kind(),
        escape(&failure.to_string()),
        spec.launches.len(),
        escape(&repro_path),
        repro.trim_end()
    );
}

fn parse_num(v: Option<String>, flag: &str) -> u64 {
    v.and_then(|s| s.parse::<u64>().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a non-negative integer")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "ladm-fuzz: differential fuzzing of the engine against the oracle\n\
         \n\
         usage:\n\
           ladm-fuzz [--seed N] [--trials N] [--sessions N] [--out DIR]\n\
           ladm-fuzz --replay FILE [--replay FILE ...]\n\
           ladm-fuzz --corpus DIR\n\
           ladm-fuzz --dump TRIAL [--seed N]\n\
           ladm-fuzz --dump-session TRIAL [--seed N]\n\
         \n\
         options:\n\
           --seed N           master seed (default: 0)\n\
           --trials N         single-launch trials to run (default: 200,\n\
                              or 0 when --sessions is given)\n\
           --sessions N       multi-launch session trials to run\n\
                              (default: 0)\n\
           --out DIR          where reproducers are written\n\
                              (default: fuzz-failures)\n\
           --replay FILE      re-run one saved spec (either schema)\n\
           --corpus DIR       re-run every .json spec in DIR\n\
           --dump TRIAL       print one trial spec as corpus JSON\n\
           --dump-session TRIAL  print one session spec as corpus JSON"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
