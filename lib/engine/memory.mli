(** Engine-wide memory budget, in rows — the |M| of the paper's Section
    6.2 generalized to the whole engine: how many build-side rows any
    single operator may hold resident at once.

    Defaults to [max_int] (everything fits, nothing spills); set per
    invocation from the CLI [--mem-budget] option.  It is the engine's
    only budget: {!Planner} partitions over-budget hash joins by it
    ({!Plan.Partitioned}) and clamps PNHL budgets to it, and {!Cost}
    charges spill I/O for over-budget builds.  The executor reads only
    the budgets the plan carries.

    The bound holds per partition: spilled partitions and PNHL segments
    run as {!Pool.run} tasks, so at K domains up to K of them, each
    within the budget, are resident at once. *)

val budget : int ref
val unlimited : unit -> bool

(** Parse a CLI budget spec: a positive integer with an optional [k]
    (x 1024) or [m] (x 1024^2) suffix, case-insensitive.  [None] on
    anything else (zero, negative, overflow, garbage). *)
val parse : string -> int option
