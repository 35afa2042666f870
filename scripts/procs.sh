# Process bookkeeping shared by the smoke scripts; source it, then record
# every background PID with `track PID` and call `stop_tracked` from the
# EXIT trap.
#
# Start tracked processes in the script's own shell, never inside $(…):
# a command substitution runs in a subshell, so a `track` there is lost
# when the subshell exits and the process outlives the script.

tracked=()

track() {
    tracked+=("$1")
}

# alive prints the tracked PIDs that still run as children of this
# script (zombies count as gone; a reaped PID reused by an unrelated
# process is not ours to stop).
alive() {
    local p state ppid
    for p in ${tracked[@]+"${tracked[@]}"}; do
        read -r state ppid < <(ps -o stat=,ppid= -p "$p" 2>/dev/null) || continue
        [[ $state != Z* && $ppid == "$$" ]] && echo "$p"
    done
    return 0
}

# stop_tracked sends SIGTERM to every live tracked process, waits up to
# five seconds, SIGKILLs whatever is left and reaps it. It fails, naming
# the survivors, if any tracked process is still running afterwards.
stop_tracked() {
    local live p
    live=$(alive)
    [ -z "$live" ] && return 0
    # shellcheck disable=SC2086 # word splitting of the PID list is wanted
    kill -TERM $live 2>/dev/null || true
    for _ in $(seq 50); do
        [ -z "$(alive)" ] && break
        sleep 0.1
    done
    live=$(alive)
    if [ -n "$live" ]; then
        # shellcheck disable=SC2086
        kill -KILL $live 2>/dev/null || true
    fi
    for p in ${tracked[@]+"${tracked[@]}"}; do
        wait "$p" 2>/dev/null || true
    done
    for _ in $(seq 20); do
        [ -z "$(alive)" ] && return 0
        sleep 0.1
    done
    echo "processes still running after cleanup: $(alive | tr '\n' ' ')" >&2
    return 1
}
