//! The `rejecto` command-line tool: simulate attacks, persist augmented
//! graphs, and run the detectors from the shell.
//!
//! ```text
//! rejecto simulate  --out attack.rjg [--host Facebook] [--scale 0.2] ...
//! rejecto detect    --graph attack.rjg [--budget N | --threshold F] ...
//! rejecto stats     --graph edges.txt | --augmented attack.rjg
//! rejecto votetrust --log requests.log [--bottom N]
//! rejecto sybilrank --graph edges.txt --seeds 0,1,2 [--bottom N]
//! ```

mod args;
mod commands;

pub use args::{ArgError, Args};
pub use commands::{run, CliError};

/// Top-level usage text.
pub const USAGE: &str = "\
rejecto — friend-spam detection via social rejections (ICDCS'15 reproduction)

USAGE:
  rejecto <COMMAND> [--key value ...]

COMMANDS:
  simulate    Simulate a friend-spam attack on a surrogate or SNAP host
              graph; writes the augmented graph, request log, and ground
              truth.
                --out <stem>          output stem (writes <stem>.rjg,
                                      <stem>.requests, <stem>.truth)
                --host <name>         Table-I surrogate [default Facebook]
                --edge-list <path>    ... or a SNAP edge list as the host
                --scale <f>           surrogate scale [default 0.2]
                --fakes <n>           injected fakes [default scale*10000]
                --requests <n>        spam requests per fake [default 20]
                --spam-rejection <f>  spam rejection rate [default 0.7]
                --legit-rejection <f> legit rejection rate [default 0.2]
                --intra-edges <n>     intra-fake edges per fake [default 6]
                --spammer-fraction <f> fraction of fakes that spam [1.0]
                --whitewashed <n>     self-rejection attack: this many
                                      fakes keep spamming but also reject
                                      internal requests from sacrificed
                                      fakes (who send no spam to legit
                                      users); enables the mode
                --self-requests <n>   requests each sacrificed fake sends
                                      to the whitewashed set [default 10]
                                      (needs --whitewashed)
                --self-rejection-rate <f>
                                      rate at which whitewashed fakes
                                      reject them (the Fig 14 sweep axis)
                                      [default 0.9] (needs --whitewashed)
                --seed <u64>          RNG seed [default 42]

  detect      Run iterative MAAR detection on an augmented graph.
                --graph <path.rjg>    input augmented graph
                --budget <n>          stop after n suspects
                --threshold <f>       ... or at this acceptance rate
                --truth <path>        optional ground truth for scoring
                --json <bool>         machine-readable output [false]
                --threads <n>         k-sweep worker threads; 0 = all
                                      cores, 1 = serial [default 0].
                                      Results are identical for every
                                      value (deterministic reduction).
                --lenient <bool>      skip+count malformed graph lines
                                      instead of failing the load [false]
                --deadline-ms <n>     wall-clock budget; an expired run
                                      returns a partial report
                --max-passes <n>      global KL inner-pass budget
                --max-rounds <n>      stop after n completed prune rounds
                --max-nodes <n>       resource ceiling: reject inputs
                                      declaring more than n nodes before
                                      any allocation happens
                --max-edges <n>       resource ceiling on friendship edges
                --max-rejections <n>  resource ceiling on rejection edges
                --max-checkpoint-bytes <n>
                                      resource ceiling on any checkpoint
                                      artifact, enforced on save (the frame
                                      is never written) and on load (gated
                                      on file metadata before the bytes
                                      are read)
                --max-suspect-frac <f>
                                      resource ceiling on the cumulative
                                      suspect fraction of the input graph;
                                      the offending round is rolled back
                                      and the run reports a partial result
                                      (deterministic)
                --checkpoint <stem>   write checksummed checkpoint
                                      generations (<stem>.gen-<round>.json
                                      plus <stem>.manifest) after every
                                      completed round, each via the atomic
                                      write protocol
                --checkpoint-keep <n> checkpoint generations retained
                                      before pruning [default 3]
                                      (needs --checkpoint)
                --resume <stem>       resume from the newest *valid*
                                      generation under a --checkpoint stem
                                      (corrupt/truncated generations are
                                      skipped with a recorded failure; a
                                      plain pre-generational checkpoint
                                      file also works; same graph
                                      required; local and distributed
                                      checkpoints are interchangeable)
                --distributed <bool>  run on the in-process cluster
                                      runtime (§V); the report is byte-
                                      identical to the local run at every
                                      worker count [false]
                --workers <n>         cluster worker count [default 4]
                                      (needs --distributed)
                --request-deadline-ms <n>
                                      per-request watchdog deadline; a
                                      worker silent past it is declared
                                      hung and respawned from lineage
                                      [default 5000] (needs --distributed)
                --metrics <path|->    write run metrics as versioned JSON
                                      (rejecto-metrics/v1); everything
                                      outside the trailing `timings`
                                      section is byte-identical across
                                      --threads / --workers values.
                                      `-` prints a human summary instead
                --inject <spec>       deterministic fault injection, e.g.
                                      worker_panic@k=3,io_error@round=2,
                                      deadline=50ms; distributed forms:
                                      worker_death@fetch=N[:xM] (kill a
                                      worker at the Nth fetch, M times),
                                      worker_hang@fetch=N (hang one
                                      worker at the Nth fetch);
                                      durable-store forms:
                                      torn_write@round=N (truncate the
                                      round-N checkpoint generation),
                                      bit_flip@round=N (flip one bit in
                                      it) (testing only)

  stats       Structural statistics of a graph.
                --graph <path>        SNAP edge list, or
                --augmented <path>    augmented graph (.rjg)

  votetrust   Rank users with the VoteTrust baseline.
                --log <path>          request log (from to accepted)
                --bottom <n>          how many suspects to print [20]
                --seeds <ids>         trusted seeds, comma-separated

  sybilrank   Rank users with SybilRank.
                --graph <path>        SNAP edge list
                --seeds <ids>         trust seeds, comma-separated
                --bottom <n>          how many low-trust users to print [20]

  defense     Defense in depth: prune Rejecto's suspects, then report
              SybilRank's ranking quality before/after.
                --graph <path.rjg>    augmented graph
                --seeds <ids>         known-legit seeds, comma-separated
                --budget <n>          suspects to prune [1000]
                --truth <path>        ground truth for AUC scoring
                --threads <n>         k-sweep worker threads [default 0]

Run `rejecto <COMMAND> --help` for the command's flags.
";
