(* Minimal SARIF 2.1.0 writer (hand-rolled JSON; no external deps).

   Emits the subset CI viewers require: $schema/version, one run with
   tool.driver (name, version, informationUri, rules) and results carrying
   ruleId, level, message.text, a physical location (artifact uri +
   startLine) and a partial fingerprint (the finding's stable key). *)

type result = {
  rule_id : string;
  message : string;
  path : string;
  line : int;
  fingerprint : string;
  properties : (string * string) list;
  related : (string * int * string) list;
      (* witness chain hops as (path, line, text) -> relatedLocations *)
}

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = "\"" ^ escape s ^ "\""

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

let rule_object (id, description) =
  obj
    [
      ("id", str id);
      ("shortDescription", obj [ ("text", str description) ]);
    ]

let physical_location ~path ~line =
  ( "physicalLocation",
    obj
      [
        ("artifactLocation", obj [ ("uri", str path) ]);
        ("region", obj [ ("startLine", string_of_int line) ]);
      ] )

let result_object r =
  obj
    ([
      ("ruleId", str r.rule_id);
      ("level", str "error");
      ("message", obj [ ("text", str r.message) ]);
      ("locations", arr [ obj [ physical_location ~path:r.path ~line:r.line ] ]);
      ( "partialFingerprints",
        obj [ ("radiolint/v1", str r.fingerprint) ] );
    ]
    @ (match r.related with
      | [] -> []
      | hops ->
          [
            ( "relatedLocations",
              arr
                (List.map
                   (fun (path, line, text) ->
                     obj
                       [
                         physical_location ~path ~line;
                         ("message", obj [ ("text", str text) ]);
                       ])
                   hops) );
          ])
    @
    match r.properties with
    | [] -> []
    | ps -> [ ("properties", obj (List.map (fun (k, v) -> (k, str v)) ps)) ])

let to_string ~tool_version ~rules results =
  obj
    [
      ("$schema", str schema_uri);
      ("version", str "2.1.0");
      ( "runs",
        arr
          [
            obj
              [
                ( "tool",
                  obj
                    [
                      ( "driver",
                        obj
                          [
                            ("name", str "radiolint");
                            ("version", str tool_version);
                            ("rules", arr (List.map rule_object rules));
                          ] );
                    ] );
                ("results", arr (List.map result_object results));
              ];
          ] );
    ]
  ^ "\n"
