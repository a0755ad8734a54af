(** Human-readable rendering of schedules and executions.

    The adversaries and the explorer produce schedules as action lists;
    [render] replays one from a configuration and prints, for every action,
    what the process actually did (which register it read, wrote or
    swapped, or that it responded), so constructed executions — e.g. a
    Lemma 4.1 schedule or an explorer counterexample — can be inspected. *)

val render :
  ?pp_value:(Format.formatter -> 'v -> unit) ->
  supplier:('v, 'r) Schedule.supplier ->
  ('v, 'r) Sim.t ->
  Schedule.action list ->
  string
(** [render ~supplier cfg actions] replays [actions] from [cfg] and returns
    one line per action.  Values are printed with [pp_value] when given. *)
