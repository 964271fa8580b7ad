#!/usr/bin/env bash
# The benchmark's one command. Builds the package (offline, release) and
# hands every argument to it:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--workload W] [--repeat K] [--trace]
#   benchmark/run.sh --selfcheck [--repeat K]     two sets, compared
#   benchmark/run.sh --quick                      every check, no numbers
#
# Anything but a single run also runs the package's unit tests first.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

single=0
case " $* " in *" --workload "*) single=1 ;; esac
case " $* " in *" --repeat "* | *" --selfcheck "*) single=0 ;; esac

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
if [ "$single" = 0 ]; then
    cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
fi

# Hold still what the hardware and the C library would otherwise decide from
# timing or at random, where the tools to do so exist (see README, "Noise"):
#
# - One CPU (taskset). Across two vCPUs the time to wake a blocked thread
#   depends on whether the other vCPU is halted, which the hypervisor decides
#   from recent history: serve-zipf ran at 20 k or 11 k ops/s depending on
#   which workload ran before it. On one CPU a wake-up is a context switch.
# - No address-space randomisation (setarch -R): cold_open_ms read 4.7 or
#   5.3 ms from one process to the next, by where the heap happened to land.
# - One malloc arena: which arena a thread gets is decided by timing, and
#   peak RSS read 47 or 53 MiB.
export MALLOC_ARENA_MAX=1
cmd=("$target/release/ajax-benchmark" --out "$here/out" "$@")
if command -v setarch >/dev/null 2>&1; then
    cmd=(setarch "$(uname -m)" -R "${cmd[@]}")
fi
if command -v taskset >/dev/null 2>&1; then
    cpus="$(taskset -cp $$)" # "pid N's current affinity list: 0,1"
    cpu="${cpus##*[:,-]}"    # the last CPU this shell may run on
    cmd=(taskset -c "${cpu// /}" "${cmd[@]}")
fi
exec "${cmd[@]}"
