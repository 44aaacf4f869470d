(** Stabilisation detection.

    An execution stabilises in time [t] (Section 2) if from round [t]
    onward all non-faulty nodes output a common value that increments by
    one modulo [c] every round. Given the finite output log of a run, we
    report the earliest [t] whose suffix is entirely correct counting.
    Because a finite suffix cannot prove an infinite property, callers
    state a [min_suffix]: a verdict [Stabilized t] is only issued when at
    least [min_suffix] clean rounds follow [t]. *)

type verdict = Online.verdict =
  | Stabilized of int  (** earliest round from which the whole observed suffix counts correctly *)
  | Not_stabilized  (** no adequate clean suffix in the observed window *)
      (** Re-export of {!Online.verdict}: the incremental detector and
          the offline checker share one verdict type, and the streaming
          {!Engine} is guaranteed to agree with {!of_outputs} (see
          [engine.mli]). *)

val of_outputs :
  c:int -> correct:int list -> min_suffix:int -> int array array -> verdict
(** [of_outputs ~c ~correct ~min_suffix outputs] analyses
    [outputs.(t).(v)] for [v] in [correct]. {!of_run} applies it to a
    full run; tests call it directly as the offline oracle of
    {!Online}: [test_sim.ml] ("online detector == offline checker on
    every prefix") feeds random traces to both. *)

val of_run : min_suffix:int -> 's Network.run -> verdict

val count_ok_step : c:int -> correct:int list -> int array array -> round:int -> bool
(** Is round [round] -> [round+1] a correct counting step (all correct
    nodes output one value at both ends, incremented mod [c])? *)
