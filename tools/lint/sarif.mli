(** Minimal SARIF 2.1.0 writer (hand-rolled JSON; no external deps).

    Emits the subset static-analysis viewers require: [$schema] and
    [version], one run with [tool.driver] (name, version, rule metadata)
    and [results] carrying [ruleId], [level], [message.text], a physical
    location (artifact uri + [startLine]) and a partial fingerprint — the
    finding's stable key ({!Driver.finding}'s [fingerprint]). *)

type result = {
  rule_id : string;
  message : string;
  path : string;
  line : int;
  fingerprint : string;
  properties : (string * string) list;
      (** extra per-result string properties (emitted as the SARIF
          [properties] bag when non-empty), e.g. [effectClass] on effect
          escapes *)
  related : (string * int * string) list;
      (** witness chain hops as [(path, line, text)], emitted as
          [relatedLocations] when non-empty — viewers render the full
          call path from the finding to its cause *)
}

val schema_uri : string

val to_string :
  tool_version:string -> rules:(string * string) list -> result list -> string
(** [to_string ~tool_version ~rules results] is the complete SARIF
    document; [rules] is [(id, short description)] metadata for
    [tool.driver.rules]. *)
