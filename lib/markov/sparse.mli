(** Compressed-sparse-row matrices and structure-aware stationary solvers.

    The paper's chains are sparse and nearly skip-free: the suffix chain
    [C_F] has 2Δ+1 states with exactly two transitions per row (climb the
    ladder or restart at the base), and the concatenated chain [C_F||P]
    has three.  Dense LU tops out near Δ ≈ 100; this module carries the
    same computations to Δ in the thousands by never materializing the
    dense matrix.

    Three layers:
    - the CSR container and its kernels ([mul_vec] / [vec_mul] /
      [transpose]), general rectangular matrices, empty rows allowed;
    - a {!Pool} of long-lived domains for row-partitioned parallel
      [mul_vec] — each output entry is computed by exactly one domain in
      the same left-to-right order, so results are bit-identical at every
      worker count;
    - stationary solvers for square stochastic matrices:
      {!stationary_censor} (GTH state reduction — censoring along the
      suffix ladder, subtraction-free and componentwise accurate) with a
      fill budget, and {!stationary_power} (sparse power iteration with
      Aitken-style residual projection) as the fallback. *)

type t
(** Immutable CSR: row pointers, column indices, values.  Within each
    row, columns are strictly increasing (duplicates coalesced at
    construction, explicit zeros dropped). *)

val create : rows:int -> cols:int -> entries:(int * float) list array -> t
(** [create ~rows ~cols ~entries] builds the CSR form of the matrix whose
    row [i] holds [entries.(i)] as [(column, value)] pairs, in any order;
    duplicate columns are summed, zero values dropped.
    @raise Invalid_argument if [Array.length entries <> rows], an index
    is outside [0, cols), or a value is not finite. *)

val of_fn : rows:int -> cols:int -> (int -> (int * float) list) -> t
(** [of_fn ~rows ~cols row] is {!create} with rows produced on demand —
    the band-aware construction path: generators emit transitions row by
    row and no intermediate row array outlives the build.  A row already
    in CSR form (columns strictly ascending, values nonzero) is taken as
    it is, without the sort and merge. *)

val of_slices :
  rows:int ->
  cols:int ->
  row_ptr:int array ->
  col_idx:int array ->
  values:float array ->
  t
(** [of_slices ~rows ~cols ~row_ptr ~col_idx ~values] is {!create} with
    row [i] given as the slice [\[row_ptr.(i), row_ptr.(i + 1))] of
    [col_idx] / [values], entries in any order — the flat row form
    {!Chain} keeps.  Rows already in CSR form are copied as they are. *)

val of_dense : Nakamoto_numerics.Linalg.matrix -> t
(** Drops exact zeros.  @raise Invalid_argument on ragged input. *)

val to_dense : t -> Nakamoto_numerics.Linalg.matrix

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val row : t -> int -> (int * float) list
(** Column-sorted nonzeros of row [i].
    @raise Invalid_argument if [i] is out of range. *)

val transpose : t -> t
(** CSR of the transpose (equivalently, the CSC view) — the pull form a
    gather-based distribution step wants. *)

val mul_vec : t -> float array -> float array
(** [mul_vec a x] is the column vector [A x]: a per-row gather, no
    writes outside the output row — the parallelizable orientation.
    @raise Invalid_argument on dimension mismatch. *)

val vec_mul : float array -> t -> float array
(** [vec_mul x a] is the row vector [x A] (a scatter over rows; the
    distribution-pushforward orientation when [a] holds [P] itself).
    @raise Invalid_argument on dimension mismatch. *)

(** Long-lived worker domains for row-partitioned {!mul_vec}.

    [jobs] counts the calling domain plus [jobs - 1] spawned ones — the
    {!Nakamoto_campaign.Worker_pool} shape, but with static contiguous
    row ranges instead of a work queue: partitioning by output row makes
    every entry of the result the work of exactly one domain, summed in
    the same order as the sequential kernel, so [mul_vec_pool] is
    bit-identical to {!mul_vec} at every [jobs]. *)
module Pool : sig
  type pool

  val create : jobs:int -> pool
  (** Spawns [jobs - 1] domains that wait for work.
      @raise Invalid_argument if [jobs < 1]. *)

  val jobs : pool -> int

  val shutdown : pool -> unit
  (** Joins the domains.  Idempotent; the pool is unusable afterwards. *)

  val with_pool : jobs:int -> (pool -> 'a) -> 'a
  (** [with_pool ~jobs f] runs [f] and shuts the pool down, even on
      exceptions. *)
end

val mul_vec_pool : Pool.pool -> t -> float array -> float array
(** [mul_vec_pool pool a x] is [mul_vec a x] with rows split into
    [Pool.jobs pool] contiguous ranges.  Bit-identical to the sequential
    kernel.
    @raise Invalid_argument on dimension mismatch or a shut-down pool. *)

val stationary_censor :
  ?fill_budget:int ->
  ?telemetry:Nakamoto_telemetry.Registry.t ->
  t ->
  float array option
(** [stationary_censor p] computes the stationary distribution of the
    irreducible stochastic matrix [p] by GTH state reduction (censoring):
    states are eliminated from the highest index down, each elimination
    redistributing the censored state's flow onto its predecessors, and
    the distribution is recovered by the standard forward unfolding.  No
    subtractions anywhere, so every entry carries componentwise relative
    accuracy — including stationary masses far below [1e-300]'s
    neighborhood where iterative solvers see only absolute error.

    On ladder-structured chains (transitions climb one rung or restart at
    the base — both paper chains) elimination from the top produces O(1)
    fill per state and the whole solve is O(nnz): ~0.5 ms for the
    4001-state [C_F] at Δ = 2000.  The working storage is a handful of
    flat arrays allocated once per solve (O(n + nnz) words, no per-state
    blocks), and each fill-in probe is O(1) whatever the row width.  On
    general chains fill can grow; when the live entry count would exceed
    [fill_budget]
    (default [max 200_000 (64 * rows)]) the solve stops and returns
    [None] — callers fall back to {!stationary_power}.
    @raise Invalid_argument if [p] is not square or a row of a state
    reachable in the elimination order sums to 0 outside itself (the
    chain is reducible). *)

val stationary_power :
  ?tol:float ->
  ?max_iter:int ->
  ?pool:Pool.pool ->
  ?telemetry:Nakamoto_telemetry.Registry.t ->
  t ->
  float array
(** [stationary_power p] iterates [d <- d P] from uniform using the
    transposed CSR (gather form; row-partitioned across [pool] when
    given, bit-identical at every worker count).  Convergence is judged
    by Aitken-style residual projection: the L1 step residual [r_t] and
    its windowed geometric decay ratio [rho] project the remaining
    distance as [r_t * rho / (1 - rho)], so a slowly-mixing chain stops
    as soon as the *projected* error is below [tol] (default [1e-14])
    instead of grinding the raw residual down.
    @raise Failure if [max_iter] (default [1_000_000]) iterations do not
    converge; the message reports steps, [tol], the last residual, the
    projected error and the current spectral-gap estimate [1 - rho].
    @raise Invalid_argument if [p] is not square. *)

(** {1 Telemetry}

    When a registry is passed, both solvers time themselves under the
    [markov_stationary_seconds] span (label [solver="censor"] /
    ["power"]) and the power iteration counts every state it touches into
    the [markov_spmv_states_total] counter — states-per-second is the
    counter over the span sum, the MARKOVSCALE bench's throughput
    metric. *)
