(* serve_sessions: an in-process gbcd with a durable data dir, driven by
   two closed-loop connections over a Unix socket, reads beside writes.

   Each round, each connection replays the same request sequence on its
   own session:
   - Load + Run of the shipped exemplars and of one generated mid-size
     program (reads that evaluate from scratch and return a whole model);
   - single-fact Asserts and Retracts on transitive-closure chains, each
     followed by a point Query (writes that incremental view maintenance
     serves);
   - single-fact Asserts and Retracts on a Prim graph, each followed by a
     Run (writes that reach a choice stratum and fall back to a full
     evaluation).
   The sequence appends exactly [records_per_round] WAL records, a
   multiple of the default snapshot interval ending on a Run, so every
   round ends with a fresh snapshot and an empty log: the state the
   closing restart recovers is the same however many rounds ran. *)

open Gbc
module M = Measure

let exemplars =
  [ "example1.dl"; "bi_st_c.dl"; "sorting.dl"; "prim.dl"; "kruskal.dl"; "matching.dl";
    "huffman.dl"; "tsp.dl"; "dijkstra.dl"; "scheduling.dl"; "vertex_cover.dl";
    "set_cover.dl"; "transitive_closure.dl" ]

let workers = 2
let connections = 2

(* Generated inputs.  Transitive closure over 8 chains of 32 nodes; each
   write adds one bridge from a lower chain to a higher one and the next
   removes it, so at most 32 * 32 closure facts come and go per write,
   whatever the seed. *)
let chains = 8
let chain_len = 32
let tc_writes = 16 (* bridges, each asserted then retracted: 32 updates *)
let prim_nodes = 300
let prim_extra = 900
let prim_writes = 8 (* edges, each asserted then retracted: 16 fallback runs *)
let mid_nodes = 400
let mid_extra = 1600

(* (14 programs + 2) Load/Run pairs, plus one record per write and per
   query or run after it. *)
let records_per_round = (2 * (List.length exemplars + 3)) + (4 * tc_writes) + (4 * prim_writes)
let () = assert (records_per_round mod Server.default_config.Server.snapshot_every = 0)

type check = Text of string | Tree_weight of int | Distances of int array | Sorted

type inputs = {
  programs : (string * string) list;  (** label, source *)
  tc_source : string;
  tc_edges : Oracle.edge list;
  prim_source : string;
  prim_edges : Oracle.edge list;  (** both orientations *)
  bridges : Oracle.edge array array;  (** per connection *)
  prim_adds : Oracle.edge array array;  (** per connection *)
}

let edge u v c = { Oracle.src = u; dst = v; cost = c }
let fact e = Printf.sprintf "g(%d, %d, %d)." e.Oracle.src e.Oracle.dst e.Oracle.cost

let graph_facts edges = String.concat "\n" (List.map fact edges) ^ "\n"

let both (g : Graph_gen.t) =
  Oracle.both_ways (List.map (fun (u, v, c) -> edge u v c) g.Graph_gen.edges)

(* [g] facts of a program source, read through the program's own parser
   (they are the input, not an answer). *)
let source_edges src =
  let db = Database.create () in
  Database.load_facts db (List.filter Ast.is_fact (Parser.parse_program src));
  List.map
    (fun r -> match r with [| Value.Int u; Value.Int v; Value.Int c |] -> edge u v c | _ -> edge 0 0 0)
    (Database.facts_of db "g")

let nodes_of edges = 1 + List.fold_left (fun acc e -> max acc (max e.Oracle.src e.Oracle.dst)) 0 edges

let make_inputs ~seed =
  let read f = M.read_file (Filename.concat "programs" f) in
  let shipped = List.map (fun f -> (f, read f)) exemplars in
  let mid = Graph_gen.random_connected ~seed ~nodes:mid_nodes ~extra_edges:mid_extra in
  let mid_source = graph_facts (both mid) ^ Dijkstra.source ~root:0 in
  let prim =
    let g = Graph_gen.random_connected ~seed:(seed + 1) ~nodes:prim_nodes ~extra_edges:prim_extra in
    { g with Graph_gen.edges = List.map (fun (u, v, c) -> (u, v, 2 * c)) g.Graph_gen.edges }
  in
  let tc_edges =
    List.concat
      (List.init chains (fun c ->
           List.init (chain_len - 1) (fun i -> edge ((c * chain_len) + i) ((c * chain_len) + i + 1) 0)))
  in
  let tc_source =
    "tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n"
    ^ String.concat "\n" (List.map (fun e -> Printf.sprintf "e(%d, %d)." e.Oracle.src e.Oracle.dst) tc_edges)
    ^ "\n"
  in
  let rng = Rng.create (seed lxor 0x7e57) in
  (* The seed picks the chains a bridge joins; where on them it starts
     and ends is the same for every seed, so the closure facts a write
     adds and removes, and the rows its query returns, are too. *)
  let bridges =
    Array.init connections (fun _ ->
        Array.init tc_writes (fun w ->
            let a = Rng.int rng (chains - 1) in
            let b = a + 1 + Rng.int rng (chains - 1 - a) in
            let i = (w * 5) mod chain_len and j = ((w * 11) + 3) mod chain_len in
            edge ((a * chain_len) + i) ((b * chain_len) + j) 0))
  in
  (* Odd costs: distinct from the graph's even ones and from each other. *)
  let prim_adds =
    Array.init connections (fun _ ->
        let costs = Rng.sample_distinct rng prim_writes (List.length prim.Graph_gen.edges) in
        Array.of_list
          (List.map
             (fun k ->
               let u = Rng.int rng prim_nodes in
               edge u ((u + 1 + Rng.int rng (prim_nodes - 1)) mod prim_nodes) ((2 * k) + 1))
             costs))
  in
  { programs = shipped @ [ ("dijkstra-generated", mid_source) ];
    tc_source;
    tc_edges;
    prim_source = graph_facts (both prim) ^ Prim.source ~root:0;
    prim_edges = both prim;
    bridges;
    prim_adds }

(* The checks of each Load + Run, computed apart from the server: the
   canonical rendering of a from-scratch in-process evaluation, and an
   oracle answer where the program has one. *)
let read_checks inputs =
  let text src =
    let model, _ = Stage_engine.run (Parser.parse_program src) in
    Text (Format.asprintf "%a" Database.pp model)
  in
  let oracle (label, src) =
    let es = source_edges src in
    match label with
    | "prim.dl" -> [ Tree_weight (fst (Oracle.greedy_tree (nodes_of es) es 0)) ]
    | "kruskal.dl" -> [ Tree_weight (Oracle.mst_weight (nodes_of es) es) ]
    | "dijkstra.dl" | "dijkstra-generated" -> [ Distances (Oracle.dijkstra (nodes_of es) es 0) ]
    | "sorting.dl" -> [ Sorted ]
    | _ -> []
  in
  List.map (fun (label, src) -> (src, text src :: oracle (label, src))) inputs.programs
  @ [ (inputs.tc_source, [ text inputs.tc_source ]) ]

(* ---------------- answers ---------------- *)

let ints args = List.map (fun a -> Option.value (int_of_string_opt a) ~default:min_int) args

(* Weight of the chosen edges of a Prim ([prm]) or Kruskal model. *)
let tree_weight text =
  let sum pred = List.fold_left (fun acc a -> match ints a with [ _; _; c; _ ] -> acc + c | _ -> acc) 0 (M.facts_in_text text pred) in
  sum "prm" + sum "kruskal"

let check_model text = function
  | Text expected -> String.equal text expected
  | Tree_weight w -> tree_weight text = w
  | Distances dist ->
    let got = List.map ints (M.facts_in_text text "dij") in
    List.length got = Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 dist
    && List.for_all (function [ y; d; _ ] -> y >= 0 && y < Array.length dist && dist.(y) = d | _ -> false) got
  | Sorted ->
    let items = M.facts_in_text text "sp" |> List.map (function [ x; c; i ] -> (int_of_string i, (x, c)) | _ -> (0, ("", ""))) in
    let order = List.sort compare items |> List.filter (fun (i, _) -> i > 0) |> List.map snd in
    let costs = List.map (fun (_, c) -> int_of_string c) order in
    List.sort compare costs = costs

(* Rows of a point query [tc(a, X)] as node numbers. *)
let answer_nodes rows =
  List.sort compare
    (List.filter_map
       (fun r -> match String.split_on_char '=' r with [ _; v ] -> int_of_string_opt (String.trim v) | _ -> None)
       rows)

(* ---------------- one connection's round ---------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable evals : float list;  (** seconds *)
  mutable updates : float list;
  by_kind : (string, float list) Hashtbl.t;  (** per request kind *)
  mutable frames : (Protocol.request * Protocol.response) list;
  mutable last_model : string;
}

let tally () =
  { attempted = 0; failed = 0; wrong = 0; evals = []; updates = []; by_kind = Hashtbl.create 8;
    frames = []; last_model = "" }

let kind_of = function
  | Protocol.Load _ -> "load"
  | Protocol.Run _ -> "run"
  | Protocol.Assert_facts _ -> "assert"
  | Protocol.Retract_facts _ -> "retract"
  | Protocol.Query _ -> "query"
  | _ -> "other"

let run_req = Protocol.Run { engine = Protocol.Staged; seed = None; preds = None; budget = Protocol.no_budget }
let query_req text = Protocol.Query { engine = Protocol.Staged; text; budget = Protocol.no_budget }

(* One request through [send], which returns (latency, response); [ok]
   checks the response.  Returns the latency. *)
let request (t : tally) send req ok =
  t.attempted <- t.attempted + 1;
  let dt, resp = send req in
  let k = kind_of req in
  Hashtbl.replace t.by_kind k (dt :: Option.value (Hashtbl.find_opt t.by_kind k) ~default:[]);
  (match resp with
  | Protocol.Error { message; _ } ->
    Printf.eprintf "perfbench: %s request failed: %s\n%!" k message;
    t.failed <- t.failed + 1
  | _ ->
    if not (try ok resp with _ -> false) then begin
      Printf.eprintf "perfbench: wrong answer to a %s request\n%!" k;
      t.failed <- t.failed + 1;
      t.wrong <- t.wrong + 1
    end);
  dt

(* The request sequence of one connection. *)
let session_round inputs ~checks ~conn (t : tally) send =
  let rpc = request t send in
  let loaded = function Protocol.Loaded _ -> true | _ -> false in
  let model checks = function
    | Protocol.Model { complete = true; text; _ } ->
      t.last_model <- text;
      List.for_all (check_model text) checks
    | _ -> false
  in
  let load_run src checks =
    let a = rpc (Protocol.Load src) loaded in
    let b = rpc run_req (model checks) in
    t.evals <- (a +. b) :: t.evals
  in
  (* reads: every program, starting at a different one per connection *)
  let n = List.length inputs.programs in
  List.iteri
    (fun i _ ->
      let _, src = List.nth inputs.programs ((i + (conn * 7)) mod n) in
      load_run src (List.assq src checks))
    inputs.programs;
  (* writes served by incremental maintenance *)
  let tc_nodes = chains * chain_len in
  load_run inputs.tc_source (List.assq inputs.tc_source checks);
  let write (e : Oracle.edge) req edges =
    let a =
      rpc req (function
        | Protocol.Asserted { added = 1 } | Protocol.Retracted { removed = 1 } -> true
        | _ -> false)
    in
    let expected = Oracle.reachable tc_nodes edges e.Oracle.src in
    let b =
      rpc (query_req (Printf.sprintf "tc(%d, X)" e.Oracle.src)) (function
        | Protocol.Answers { complete = true; rows; _ } -> answer_nodes rows = expected
        | _ -> false)
    in
    t.updates <- (a +. b) :: t.updates
  in
  Array.iter
    (fun e ->
      let text = Printf.sprintf "e(%d, %d)." e.Oracle.src e.Oracle.dst in
      write e (Protocol.Assert_facts { text; id = None }) (e :: inputs.tc_edges);
      write e (Protocol.Retract_facts { text; id = None }) inputs.tc_edges)
    inputs.bridges.(conn);
  (* writes that fall back to full evaluation *)
  let weight edges = [ Tree_weight (fst (Oracle.greedy_tree prim_nodes edges 0)) ] in
  load_run inputs.prim_source (weight inputs.prim_edges);
  let fallback req edges =
    ignore
      (rpc req (function
        | Protocol.Asserted { added = 1 } | Protocol.Retracted { removed = 1 } -> true
        | _ -> false));
    t.evals <- rpc run_req (model (weight edges)) :: t.evals
  in
  Array.iter
    (fun e ->
      fallback (Protocol.Assert_facts { text = fact e; id = None }) (e :: inputs.prim_edges);
      fallback (Protocol.Retract_facts { text = fact e; id = None }) inputs.prim_edges)
    inputs.prim_adds.(conn)

(* ---------------- the daemon ---------------- *)

type daemon = { srv : Server.t; runner : unit Domain.t }

let config ~data ~sock =
  { Server.default_config with port = None; unix_path = Some sock; workers; data_dir = Some data }

let start cfg =
  match Server.create cfg with
  | Ok srv -> { srv; runner = Domain.spawn (fun () -> Server.run srv) }
  | Error msg -> failwith ("gbcd: " ^ msg)

let stop d =
  Server.shutdown d.srv;
  Domain.join d.runner

let connect sock =
  let rec go tries =
    match Client.connect_unix sock with
    | c ->
      Client.set_recv_deadline c (Some 120.0);
      c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.sleepf 0.005;
      go (tries - 1)
  in
  go 1000

let timed_rpc c req =
  let t0 = M.now () in
  let resp = Client.rpc c req in
  (M.now () -. t0, resp)

(* A number in a Stats reply: the first ["key": n] after ["section": {]. *)
let stat json ~section key =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then raise Not_found
      else if String.sub json i n = sub then i + n
      else go (i + 1)
    in
    go from
  in
  let start = find (Printf.sprintf "\"%s\": {" section) 0 in
  let i = find (Printf.sprintf "\"%s\": " key) start in
  let j = ref i in
  while !j < String.length json && String.contains "0123456789.-+eE" json.[!j] do incr j done;
  float_of_string (String.sub json i (!j - i))

let stats_of c (t : tally) =
  t.attempted <- t.attempted + 1;
  match Client.rpc c Protocol.Stats with
  | Protocol.Stats_json json -> json
  | _ ->
    t.failed <- t.failed + 1;
    failwith "stats request refused"

(* ---------------- the same sequence without a socket ---------------- *)

(* Replay one connection's round straight on [Session], answering as the
   server's request handler would: the gap to the client latency is
   wire time plus queueing. *)
let direct_round inputs ~checks ~dir =
  let dur =
    match Durable.create ~fsync:Server.default_config.Server.fsync
            ~snapshot_every:Server.default_config.Server.snapshot_every dir with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  let s = Session.create ~durable:dur ~cache:(Program_cache.create ()) ~id:1 () in
  let error (code, message) = Protocol.Error { code; message } in
  let limits () = Limits.create ~timeout_s:30.0 ~cancel:s.Session.cancel () in
  let handle = function
    | Protocol.Load src -> (
      match Session.load s src with
      | Ok (e, cache_hit) ->
        Protocol.Loaded
          { clauses = List.length e.Program_cache.program; cache_hit; digest = e.Program_cache.digest;
            stage_stratified = e.Program_cache.report.Stage.stage_stratified }
      | Error e -> error e)
    | Protocol.Run _ -> (
      match
        Session.run s ~engine:Protocol.Staged ~seed:None ~jobs:1 ~limits:(limits ())
          ~telemetry:(Telemetry.create ())
      with
      | Ok outcome ->
        Protocol.Model
          { complete = (match outcome with Limits.Complete _ -> true | Limits.Partial _ -> false);
            text = Session.render_model (Limits.value outcome); diagnostic = None }
      | Error e -> error e)
    | Protocol.Assert_facts { text; id } -> (
      match Session.assert_facts ?id s text with Ok added -> Protocol.Asserted { added } | Error e -> error e)
    | Protocol.Retract_facts { text; id } -> (
      match Session.retract_facts ?id s text with
      | Ok removed -> Protocol.Retracted { removed }
      | Error e -> error e)
    | Protocol.Query { text; _ } -> (
      match
        Session.query s ~engine:Protocol.Staged ~text ~jobs:1 ~limits:(limits ()) ~telemetry:(Telemetry.create ())
      with
      | Ok (complete, vars, rows) -> Protocol.Answers { complete; vars; rows }
      | Error e -> error e)
    | _ -> error (Protocol.Protocol_violation, "not replayed")
  in
  let send req =
    let t0 = M.now () in
    let resp = handle req in
    (M.now () -. t0, resp)
  in
  (* the first round fills the program cache, as the served rounds did *)
  session_round inputs ~checks ~conn:0 (tally ()) send;
  let t = tally () in
  session_round inputs ~checks ~conn:0 t send;
  Session.discard s;
  t

(* Encode and decode every frame of one connection's round, µs per frame. *)
let codec_us frames =
  let reqs = List.map fst frames and resps = List.map snd frames in
  let payload f = String.sub f 4 (String.length f - 4) in
  let req_payloads = List.map (fun r -> payload (Protocol.encode_request r)) reqs in
  let resp_payloads = List.map (fun r -> payload (Protocol.encode_response r)) resps in
  let per_frame f =
    let reps = ref 0 and t0 = M.now () in
    while !reps = 0 || M.now () -. t0 < 0.2 do
      f ();
      incr reps
    done;
    (M.now () -. t0) /. float_of_int (!reps * 2 * List.length frames) *. 1e6
  in
  ( per_frame (fun () ->
        List.iter (fun r -> ignore (Protocol.encode_request r)) reqs;
        List.iter (fun r -> ignore (Protocol.encode_response r)) resps),
    per_frame (fun () ->
        List.iter (fun p -> ignore (Protocol.decode_request p)) req_payloads;
        List.iter (fun p -> ignore (Protocol.decode_response p)) resp_payloads) )

(* ---------------- the run ---------------- *)

(* [Server.create] over a data dir, timed; the server is then started
   and stopped again. *)
let restart cfg =
  Gc.full_major ();
  let t0 = M.now () in
  let srv = match Server.create cfg with Ok srv -> srv | Error msg -> failwith ("gbcd restart: " ^ msg) in
  let dt = M.now () -. t0 in
  (dt, { srv; runner = Domain.spawn (fun () -> Server.run srv) })

(* A restart takes tens of milliseconds; several per round give the
   median enough samples to ride out the host's short stalls. *)
let restarts_per_round = 3

let run ~seed ~seconds ~trace ~dir : M.outcome =
  let setup name =
    let t0 = M.now () in
    let inputs = make_inputs ~seed in
    let data = Filename.concat dir (name ^ ".data") in
    let cfg = config ~data ~sock:(Filename.concat dir (name ^ ".sock")) in
    let d = start cfg in
    let conns = List.init connections (fun _ -> connect (Option.get cfg.Server.unix_path)) in
    (M.now () -. t0, (inputs, data, cfg, d, conns))
  in
  let first, (inputs, data, cfg, d, conns) = setup "gbcd" in
  let checks = read_checks inputs in
  (* One more set-up, and one restart over a copy of the data dir, after
     every round: these samples then spread over the run as the rounds
     do, and their medians ride out the host's slow and fast spells.
     Every round leaves the data dir in the same state. *)
  let setups = ref [ first ] and restarts = ref [] and calibrations = ref [] in
  let between () =
    let dt, (_, scratch, _, d, conns) = setup "setup" in
    List.iter Client.close conns;
    stop d;
    M.rm_rf scratch;
    setups := dt :: !setups;
    for _ = 1 to restarts_per_round do
      let copy = Filename.concat dir "recover.data" in
      M.copy_tree data copy;
      let dt, d = restart (config ~data:copy ~sock:(Filename.concat dir "recover.sock")) in
      stop d;
      M.rm_rf copy;
      restarts := dt :: !restarts
    done;
    calibrations := M.calibrate ~domains:workers :: !calibrations
  in
  let totals = tally () in
  let merge (t : tally) =
    totals.attempted <- totals.attempted + t.attempted;
    totals.failed <- totals.failed + t.failed;
    totals.wrong <- totals.wrong + t.wrong
  in
  (* Connection 0's first request completes before the others start:
     two workers appending the first WAL records of the process at once
     can fail (see the FOUND line on Checksum.table in CHANGES.md). *)
  let first_done = Atomic.make false in
  (* the last answer of each session, kept from the latest round only:
     every earlier round's model texts would pile up in the heap *)
  let last_models = ref [] in
  (* one round: both connections replay their sequence concurrently *)
  let round ~keep_frames () =
    let tallies = List.map (fun _ -> tally ()) conns in
    let failure = Atomic.make None in
    let t0 = M.now () in
    let threads =
      List.mapi
        (fun i (c, t) ->
          let send req =
            let dt, resp = timed_rpc c req in
            if i = 0 then Atomic.set first_done true;
            if keep_frames && i = 0 then t.frames <- (req, resp) :: t.frames;
            (dt, resp)
          in
          Thread.create
            (fun () ->
              while not (Atomic.get first_done || i = 0) do Thread.delay 0.001 done;
              try session_round inputs ~checks ~conn:i t send with e -> Atomic.set failure (Some e))
            ())
        (List.combine conns tallies)
    in
    List.iter Thread.join threads;
    let wall = M.now () -. t0 in
    List.iter merge tallies;
    last_models := List.map (fun t -> t.last_model) tallies;
    List.iter (fun t -> t.last_model <- "") tallies;
    Option.iter raise (Atomic.get failure);
    between ();
    (wall, tallies)
  in
  let stats () = List.map (fun c -> stats_of c totals) conns in
  let plain = M.rounds_for (if trace then seconds /. 2.0 else seconds) (round ~keep_frames:false) in
  let before = if trace then stats () else [] in
  let traced = if trace then M.rounds_for (seconds /. 2.0) (round ~keep_frames:true) else [] in
  let after = stats () in
  (* the sessions outlive their connections; note each one's last answer *)
  let last_models =
    List.map2
      (fun c model ->
        totals.attempted <- totals.attempted + 1;
        match Client.rpc c (Protocol.Attach None) with
        | Protocol.Attached { id } -> (id, model)
        | _ -> failwith "attach refused")
      conns !last_models
  in
  List.iter Client.close conns;
  stop d;
  let data_dir_bytes = M.dir_bytes data in
  (* the closing restart over the data dir checks every session *)
  let dt, d = restart cfg in
  restarts := dt :: !restarts;
  let c = connect (Option.get cfg.Server.unix_path) in
  List.iter
    (fun (id, model) ->
      let t = tally () in
      ignore (request t (timed_rpc c) (Protocol.Attach (Some id)) (function Protocol.Attached _ -> true | _ -> false));
      ignore
        (request t (timed_rpc c) run_req (function
          | Protocol.Model { complete = true; text; _ } -> String.equal text model
          | _ -> false));
      merge t)
    last_models;
  let recovered = stat (stats_of c totals) ~section:"server" "sessions_recovered" in
  Client.close c;
  stop d;
  let evals rs = List.concat_map (fun (_, ts) -> List.concat_map (fun t -> t.evals) ts) rs in
  let updates rs = List.concat_map (fun (_, ts) -> List.concat_map (fun t -> t.updates) ts) rs in
  let walls rs = List.map fst rs in
  let ms x = 1000.0 *. x in
  let metrics =
    if not trace then
      (* every round sends the same requests; rates and walls are
         medians over rounds, latencies medians over all requests *)
      let per_round = List.fold_left (fun acc t -> acc + t.attempted) 0 (snd (List.hd plain)) in
      let wall = M.median (walls plain) in
      [ ("setup_s", M.median !setups);
        ("run_wall_s", wall);
        ("peak_heap_mb", M.peak_heap_mb ());
        ("serve_rps", float_of_int per_round /. wall);
        ("eval_p50_ms", ms (M.median (evals plain)));
        ("update_p50_ms", ms (M.median (updates plain)));
        ("recovery_s", M.median !restarts) ]
    else begin
      let n = float_of_int (List.length traced) in
      let server = List.hd after in
      let diff section key =
        (M.sum (List.map (fun j -> stat j ~section key) after)
        -. M.sum (List.map (fun j -> stat j ~section key) before))
        /. n
      in
      (* server-wide figures, read from one connection's replies *)
      let server_diff section key =
        (stat (List.hd after) ~section key -. stat (List.hd before) ~section key) /. n
      in
      let kind k =
        ms (M.median (List.concat_map (fun (_, ts) -> List.concat_map (fun t -> Option.value (Hashtbl.find_opt t.by_kind k) ~default:[]) ts) traced))
      in
      let encode_us, decode_us =
        codec_us (List.rev (List.hd (snd (List.hd traced))).frames)
      in
      let direct = direct_round inputs ~checks ~dir:(Filename.concat dir "direct") in
      merge direct;
      let incremental = diff "session" "runs_incremental" and fallbacks = diff "session" "ivm_fallbacks" in
      let wall = M.median (walls traced) in
      [ ("client.load_p50_ms", kind "load"); ("client.run_p50_ms", kind "run");
        ("client.assert_p50_ms", kind "assert"); ("client.retract_p50_ms", kind "retract");
        ("client.query_p50_ms", kind "query");
        ("protocol.encode_us", encode_us); ("protocol.decode_us", decode_us);
        ("server.queue_wait_mean_us", stat server ~section:"queue_wait" "mean_us");
        ("server.queue_wait_count", stat server ~section:"queue_wait" "count");
        ("program_cache.hits", stat server ~section:"cache" "hits");
        ("program_cache.misses", stat server ~section:"cache" "misses");
        ("program_cache.compile_ms_total", stat server ~section:"cache" "compile_ms_total");
        ("session.runs_incremental", incremental);
        ("session.runs_full", diff "session" "runs_full");
        ("session.ivm_fallbacks", fallbacks);
        ("session.ivm_hit_ratio", if incremental +. fallbacks > 0.0 then incremental /. (incremental +. fallbacks) else 0.0);
        ("session.direct_update_us", 1e6 *. M.median direct.updates);
        ("session.direct_eval_us", 1e6 *. M.median direct.evals);
        ("wal.records", server_diff "durable" "wal_records");
        ("durable.snapshots_written", server_diff "durable" "snapshots_written");
        ("durable.data_dir_bytes", float_of_int data_dir_bytes);
        ("server.sessions_recovered", recovered);
        ("stage_engine.gamma_steps", server_diff "engine" "gamma_steps");
        ("stage_engine.iterations", server_diff "engine" "iterations");
        ("stage_engine.derived", server_diff "engine" "derived");
        ("stage_engine.delta_tuples", server_diff "engine" "delta_tuples");
        ("rql.pushes", server_diff "engine" "pushes");
        ("rql.pops", server_diff "engine" "pops");
        ("rql.shadowed", server_diff "engine" "shadowed");
        ("rql.stale", server_diff "engine" "stale");
        ( "rql.fired_per_pop",
          let pops = server_diff "engine" "pops" in
          if pops > 0.0 then (pops -. server_diff "engine" "stale" -. server_diff "engine" "revalidations") /. pops
          else 0.0 );
        ("trace.wall_s", wall);
        ("trace.overhead_pct", 100.0 *. ((wall /. M.median (walls plain)) -. 1.0)) ]
    end
  in
  { M.attempted = totals.attempted; failed = totals.failed; wrong = totals.wrong; metrics; calibrations = !calibrations }
