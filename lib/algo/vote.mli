(** Majority voting primitives (Section 3.3 of the paper).

    The paper defines [majority x] as the value contained in the vector
    [x] strictly more than [|x|/2] times, and lets the function evaluate
    to an arbitrary value otherwise; implementations must default to a
    fixed harmless value (the paper suggests 0) so that all correct nodes
    compute *some* value deterministically from the same input. *)

val majority_int : default:int -> int array -> int
(** [majority_int ~default votes] is the value occurring strictly more
    than [Array.length votes / 2] times, or [default] if no value does.
    Runs in O(n) using the Boyer-Moore majority vote with a verification
    pass. *)

val counts_int : max:int -> int array -> int array
(** [counts_int ~max votes] is the histogram [z] with [z.(j)] = number of
    occurrences of [j] for [j] in [\[0, max)]; out-of-range ballots are
    ignored. This is the [z_j] vector of the phase-king instruction set
    I_{3l+1}. *)
