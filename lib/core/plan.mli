(** Recursion planning — Section 4.

    [plan_tower] turns a schedule of boosting levels (a [k] and a target
    resilience [F] per level) into exact parameters: the counter modulus
    each level must provide to the level above (Theorem 1 requires the
    inner counter to count modulo a multiple of [3(F+2)(2m)^k], so we
    thread these requirements top-down), the cumulative stabilisation-time
    bound, and the exact state-bit count. [Build] then turns a plan into a
    runnable {!Algo.Spec.t}.

    The module also exposes the schedules used in the paper:
    - {!corollary1_levels}: one level with [k = 3f+1] blocks of a single
      node — optimal resilience [f < n/3], time [f^{O(f)}] (Corollary 1);
    - {!figure2_levels}: A(4,1) -> A(12,3) -> A(36,7), the worked example
      of Figure 2;
    - {!theorem2_levels}: fixed [k = 2h], [h = 2^{ceil(1/eps)}] — resilience
      [Omega(n^{1-eps})], time [O(f)], space [O(log^2 f)] (Theorem 2);
    - {!theorem3_series}: [P] phases with [k_p = 4*2^{P-p}] blocks and
      [R_p = 2 k_p] iterations — resilience [n^{1-o(1)}] and space
      [O(log^2 f / log log f)] (Theorem 3), in log-domain floats only.

    Concrete schedules are limited by 63-bit arithmetic (the window
    [(2m)^k] grows fast); the [*_series] functions compute the same
    quantities in log-domain floats for arbitrarily large parameters, and
    power the scaling tables of the bench harness. *)

type level = { k : int; big_f : int }

type level_report = {
  index : int;  (** 1-based position, bottom-up *)
  k : int;
  big_f : int;
  n : int;  (** network size after this level *)
  c : int;  (** output modulus this level provides *)
  overhead : int;  (** 3(F+2)(2m)^k of this level *)
  time_bound : int;  (** cumulative stabilisation-time bound *)
  state_bits : int;  (** cumulative bits per node *)
}

type tower = {
  base_n : int;
  base_c : int;  (** modulus of the trivial base counter *)
  base_time : int;
  target_c : int;
  levels : level_report list;  (** bottom-up; never empty *)
}

val top : tower -> level_report

val plan_tower :
  ?base_n:int -> target_c:int -> level list -> (tower, string) result
(** [plan_tower ~target_c levels] with [levels] listed bottom-up.
    [base_n] (default 1) is the size of the 0-resilient base blocks. *)

val plan_tower_exn : ?base_n:int -> target_c:int -> level list -> tower

(** {2 Paper schedules} *)

val corollary1_levels : f:int -> level list
val figure2_levels : level list

val theorem2_levels : epsilon:float -> iterations:int -> level list
(** Raises [Invalid_argument] if [epsilon] is outside (0, 1]. The
    schedule may overflow in [plan_tower] for large parameters. *)

(** {2 Analytic scaling series (log-domain)} *)

type scaling_row = {
  step : int;  (** iteration count so far *)
  log2_n : float;
  log2_f : float;
  log2_ratio : float;  (** log2(n / f) *)
  log2_time : float;  (** log2 of the stabilisation-time bound *)
  bits : float;  (** state bits per node *)
}

val theorem2_series : epsilon:float -> iterations:int -> scaling_row list
val theorem3_series : phases:int -> scaling_row list
(** One row per completed phase (plus the base row). *)
