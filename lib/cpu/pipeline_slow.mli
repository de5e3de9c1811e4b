(** The option-latch pipeline stepper behind [Config.predecode = false].

    [Pipeline.step] dispatches here when the predecode cache is
    disabled.  It shares every per-instruction semantic function with
    the fast path ({!Semantics}) but keeps its own latch storage,
    forwarding, hazard detection and fetch scheduling, so the
    differential suite — identical registers, memory and [Stats] under
    both — checks the fast path's schedule.  It allocates per cycle and
    decodes at ID every time, so it doubles as the ablation baseline
    the simperf benchmark measures the fast path against. *)

val step : Machine.t -> unit
(** Advance the machine one cycle (no-op once halted). *)
