(** Statistics the benchmark reports and judges with. Pure: no clock, no
    I/O, so the unit tests pin every rule exactly. *)

val median : float list -> float
(** Middle value (mean of the two middle values for an even count).
    Raises [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] exactly as Python's [statistics.quantiles(xs, n=4)]
    computes them (its default "exclusive" method, clamped at the ends), so
    the spreads printed here match the ones an outside reader recomputes.
    A single value is its own three quartiles. Raises [Invalid_argument] on
    an empty list. *)

val spread : float list -> float
(** Distance between the first and third quartile as a share of the
    median; 0 when the median is 0. *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [\[0, 1\]]: the nearest-rank percentile,
    the smallest sample with at least [p] of the samples at or below it.
    Raises [Invalid_argument] on an empty list. *)

val tail_percentile : int -> float option
(** The highest of p50, p90, p99 and p99.9 that has at least ten of [n]
    samples beyond it, or [None] when even p50 has fewer. *)

(** {1 Serving ladder} *)

type step = {
  rate : float;  (** offered requests per second *)
  p90_ms : float;  (** from each request's scheduled send time *)
  failed : int;  (** non-ok, shed, degraded, late or missing replies *)
  inflight_end : int;  (** requests sent but unanswered when the step ended *)
  late_ms_max : float;  (** the generator's worst lateness against its schedule *)
}

type step_verdict = Pass | Over_limit | Failed_replies | Backlog | Invalid

val max_late_ms : float
(** A step whose generator ran later than this (20 ms) measured the load
    generator, not the server: it is {!Invalid}. *)

val judge_step : limit_ms:float -> step -> step_verdict
(** {!Invalid} when the generator was late, else the first rule the step
    breaks in the order p90 over [limit_ms], any failed reply, more than
    half a second of arrivals still in flight at the step's end. *)

val goodput : limit_ms:float -> step list -> float
(** The highest rate of the steps, taken in order, that pass before the
    first step that does not (the ladder stops there); 0 if the first step
    fails. *)

(** {1 Agreement between two result sets} *)

type better = Lower | Higher
type verdict = Agree | Unresolved | Regressed

val verdict_name : verdict -> string

val worsening : better:better -> base:float -> cand:float -> float
(** How much worse [cand] is than [base] as a share of [base] (negative when
    it is better). *)

val agree :
  better:better ->
  bound:float ->
  check_spread:bool ->
  base:float list ->
  cand:float list ->
  verdict
(** The benchmark's regression rule for one metric on one workload.
    [Agree] when every candidate run is better than every base run.
    Otherwise [Unresolved] when [check_spread] and either side's
    {!spread} exceeds [bound] — too noisy to call either way —, [Regressed]
    when the candidate median is worse than the base median by more than
    [bound], and [Agree] else. Raises [Invalid_argument] on an empty side. *)
