(* The batch workloads: the `gbc run --db` path, from program text and
   image bytes to rendered model text, timed call by call.

   Each round runs the workload's programs once from scratch (the
   [Eval] operations) and then its [Update]s: programs re-run after a
   single fact was added to their input.  The batch path has no
   incremental maintenance, so a one-fact change costs a whole run;
   that is what the update metrics report here. *)

open Gbc
module M = Measure

type kind = Eval | Update

type program = {
  label : string;
  text : string;  (** rules, plus the facts that travel as text *)
  image : string option;  (** a `gbc load` snapshot, when the facts travel as an image *)
}

type op = {
  kind : kind;
  program : program;
  check : Database.t -> string -> bool;
      (** the evaluated model and its rendering; true when correct *)
}

(* One operation, charged layer by layer to [acc]: parse, stage
   analysis, image restore, evaluation, rendering.  Returns the model
   and its text.  Telemetry is [Telemetry.none] except in traced runs. *)
let evaluate acc ~telemetry p =
  let prog = M.timed acc "parser.parse_s" (fun () -> Parser.parse_program p.text) in
  ignore (M.timed acc "stage.analyze_s" (fun () -> Stage.analyze prog));
  let db =
    Option.map
      (fun bytes ->
        M.add acc "db_snapshot.reads" 1.0;
        M.add acc "db_snapshot.image_bytes" (float_of_int (String.length bytes));
        M.timed acc "db_snapshot.read_s" (fun () -> fst (Db_snapshot.read bytes 0)))
      p.image
  in
  let input_facts =
    Option.fold ~none:0 ~some:Database.cardinal db
    + List.length (List.filter Ast.is_fact prog)
  in
  let minor0 = Gc.minor_words () in
  let model, _ = M.timed acc "stage_engine.run_s" (fun () -> Stage_engine.run ~telemetry ?db prog) in
  M.add acc "stage_engine.minor_words" (Gc.minor_words () -. minor0);
  M.add acc "stage_engine.new_facts" (float_of_int (Database.cardinal model - input_facts));
  let buf = Buffer.create (1 lsl 16) in
  M.timed acc "pretty.render_s" (fun () ->
      let ppf = Format.formatter_of_buffer buf in
      Format.fprintf ppf "%a@?" Database.pp model);
  M.add acc "pretty.bytes" (float_of_int (Buffer.length buf));
  let flat, all =
    List.fold_left
      (fun (flat, all) pred ->
        let r = Option.get (Database.find model pred) in
        let n = Relation.cardinal r in
        ((if Relation.is_flat r then flat + n else flat), all + n))
      (0, 0) (Database.preds model)
  in
  M.add acc "relation.flat_facts" (float_of_int flat);
  M.add acc "relation.facts" (float_of_int all);
  (model, Buffer.contents buf)

(* ---------------- inputs ---------------- *)

let edge u v c = { Oracle.src = u; dst = v; cost = c }

let rows model pred = Database.facts_of model pred
let int_at row i = match row.(i) with Value.Int n -> n | _ -> min_int

(* Every model fact rendered, one line each. *)
let rendered_whole model text = M.count_lines text = Database.cardinal model

(* The rules of a shipped exemplar, without its sample graph. *)
let rules_of file =
  M.read_file (Filename.concat "programs" file)
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.starts_with ~prefix:"g(" l || String.starts_with ~prefix:"node(" l))
  |> String.concat "\n"

(* A `gbc load --gen power-law` image and the generator's edges. *)
let power_law_image ~seed ~nodes ~edges =
  let g = Graph_gen.power_law ~seed ~nodes ~edges in
  let db = Database.create () in
  Graph_gen.load_big db g;
  Graph_gen.load_big_nodes db g;
  let buf = Buffer.create (1 lsl 20) in
  Db_snapshot.write buf db;
  let es =
    List.init (Graph_gen.big_edges g) (fun i ->
        edge g.Graph_gen.big_src.(i) g.Graph_gen.big_dst.(i) g.Graph_gen.big_cost.(i))
  in
  (Buffer.contents buf, es)

(* Write the image where `gbc load -o` would, and read its bytes back:
   the batch operation starts from the bytes. *)
let stored_image dir name bytes =
  let path = Filename.concat dir name in
  M.write_file path bytes;
  M.read_file path

(* A fact [g(u, v, 0)] between two distinct seeded nodes: cost 0 is
   below every generated cost, so the change always matters. *)
let extra_edge ~seed n =
  let rng = Rng.create (seed lxor 0x5eed) in
  let u = Rng.int rng n in
  let v = (u + 1 + Rng.int rng (n - 1)) mod n in
  edge u v 0

let fact_line e = Printf.sprintf "\ng(%d, %d, %d).\n" e.Oracle.src e.Oracle.dst e.Oracle.cost

(* ---------------- graph_greedy ---------------- *)

(* Integer graphs restored from `gbc load` images.  Prim and Dijkstra
   over a power-law graph: a large EDB and model, so the gamma loop with
   its (R,Q,L) queues and the printer dominate.  Kruskal's per-stage
   relabeling over a small power-law graph: flat saturation and relation
   joins do nearly all the work, the queues and the restore almost none. *)
let graph_nodes = 3_000
let graph_edges = 12_000
let kruskal_nodes = 192
let kruskal_edges = 768

let prim_check n edges model text =
  let tree =
    List.filter_map
      (fun r -> if int_at r 3 > 0 then Some (int_at r 1, int_at r 2) else None)
      (rows model "prm")
  in
  let entered = List.sort_uniq compare (List.map fst tree) in
  List.length tree = n - 1
  && List.length entered = n - 1
  && List.fold_left (fun acc (_, c) -> acc + c) 0 tree = Oracle.mst_weight n edges
  && rendered_whole model text

let dijkstra_check n edges model text =
  let dist = Oracle.dijkstra n edges 0 in
  let got = rows model "dij" in
  let reachable = Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 dist in
  List.length got = reachable
  && List.for_all (fun r -> let y = int_at r 0 in y >= 0 && y < n && dist.(y) = int_at r 1) got
  && rendered_whole model text

let kruskal_check n edges ?must model text =
  let tree =
    List.filter_map
      (fun r -> if int_at r 3 > 0 then Some (edge (int_at r 0) (int_at r 1) (int_at r 2)) else None)
      (rows model "kruskal")
  in
  Oracle.is_spanning_tree n tree
  && List.fold_left (fun acc e -> acc + e.Oracle.cost) 0 tree = Oracle.mst_weight n edges
  && (match must with None -> true | Some e -> List.mem e tree)
  && rendered_whole model text

let graph_greedy ~seed ~dir =
  let graph, es = power_law_image ~seed ~nodes:graph_nodes ~edges:graph_edges in
  let graph = stored_image dir "graph.img" graph in
  let small, ks = power_law_image ~seed ~nodes:kruskal_nodes ~edges:kruskal_edges in
  let small = stored_image dir "kruskal.img" small in
  fun () ->
    let n = graph_nodes and k = kruskal_nodes in
    let both = lazy (Oracle.both_ways es) in
    let extra = extra_edge ~seed n and kextra = extra_edge ~seed k in
    let dij = rules_of "dijkstra.dl" and kruskal = rules_of "kruskal.dl" in
    [ { kind = Eval;
        program = { label = "prim"; text = rules_of "prim.dl"; image = Some graph };
        check = (fun m t -> prim_check n es m t) };
      { kind = Eval;
        program = { label = "dijkstra"; text = dij; image = Some graph };
        check = (fun m t -> dijkstra_check n (Lazy.force both) m t) };
      { kind = Eval;
        program = { label = "kruskal"; text = kruskal; image = Some small };
        check = (fun m t -> kruskal_check k ks m t) };
      { kind = Update;
        program = { label = "dijkstra+1"; text = dij ^ fact_line extra; image = Some graph };
        check = (fun m t -> dijkstra_check n (extra :: Lazy.force both) m t) };
      { kind = Update;
        program = { label = "kruskal+1"; text = kruskal ^ fact_line kextra; image = Some small };
        check = (fun m t -> kruskal_check k (kextra :: ks) ~must:kextra m t) } ]

(* ---------------- term_greedy ---------------- *)

(* Programs whose facts travel as text and whose values stay boxed:
   Huffman builds t(X, Y) terms, sorting keys are quoted strings, the
   TSP exit rule chooses over tuples.  No image, no server. *)
let huffman_letters = 96
let sort_items = 8_000
let tsp_cities = 120

let huffman_check letters model text =
  let merges = List.filter (fun r -> int_at r 2 > 0) (rows model "h") in
  List.length merges = List.length letters - 1
  && List.fold_left (fun acc r -> acc + int_at r 1) 0 merges = Huffman.procedural_cost letters
  && rendered_whole model text

(* The output, in stage order, is sorted by cost and is a permutation of
   the input items. *)
let sort_check items model text =
  let out =
    rows model "sp"
    |> List.filter (fun r -> int_at r 2 > 0)
    |> List.sort (fun a b -> compare (int_at a 2) (int_at b 2))
    |> List.map (fun r ->
           match r.(0) with Value.Str id -> (Value.resolve id, int_at r 1) | _ -> ("", min_int))
  in
  let rec ascending = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && ascending rest
    | _ -> true
  in
  ascending out && List.sort compare out = List.sort compare items && rendered_whole model text

let tsp_check g model text =
  let chain =
    rows model "tsp_chain"
    |> List.sort (fun a b -> compare (int_at a 3) (int_at b 3))
    |> List.map (fun r -> (int_at r 0, int_at r 1, int_at r 2))
  in
  chain = (Tsp.procedural g).Tsp.chain && rendered_whole model text

let facts_text f xs =
  let buf = Buffer.create (32 * List.length xs) in
  List.iter (fun x -> Buffer.add_string buf (f x); Buffer.add_char buf '\n') xs;
  Buffer.contents buf

let term_greedy ~seed ~dir:_ =
  let letters = Text_gen.zipf ~seed ~letters:huffman_letters in
  let huffman = facts_text (fun (s, c) -> Printf.sprintf "letter(%s, %d)." s c) letters ^ Huffman.source in
  (* Even costs, shuffled; the update adds one item with an odd cost. *)
  let rng = Rng.create seed in
  let costs = Array.init sort_items (fun i -> 2 * (i + 1)) in
  Rng.shuffle rng costs;
  let items = List.init sort_items (fun i -> (Printf.sprintf "key %05d" i, costs.(i))) in
  let sorting = facts_text (fun (k, c) -> Printf.sprintf "p(\"%s\", %d)." k c) items ^ Sorting.source in
  let extra = ("key new", (2 * Rng.int rng sort_items) + 1) in
  let sorting1 = sorting ^ Printf.sprintf "p(\"%s\", %d).\n" (fst extra) (snd extra) in
  (* Complete graph costs made pairwise distinct by rank, so the
     greedy chain has exactly one answer. *)
  let g =
    let g = Graph_gen.complete ~seed ~nodes:tsp_cities in
    let ranked = List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) g.Graph_gen.edges in
    { g with Graph_gen.edges = List.mapi (fun i (u, v, _) -> (u, v, i + 1)) ranked }
  in
  let tsp =
    facts_text
      (fun (u, v, c) -> Printf.sprintf "g(%d, %d, %d). g(%d, %d, %d)." u v c v u c)
      g.Graph_gen.edges
    ^ Tsp.source
  in
  fun () ->
    [ { kind = Eval;
        program = { label = "huffman"; text = huffman; image = None };
        check = huffman_check letters };
      { kind = Eval;
        program = { label = "sorting"; text = sorting; image = None };
        check = sort_check items };
      { kind = Eval; program = { label = "tsp"; text = tsp; image = None }; check = tsp_check g };
      { kind = Update;
        program = { label = "sorting+1"; text = sorting1; image = None };
        check = sort_check (extra :: items) } ]

(* ---------------- rounds and metrics ---------------- *)

type round = {
  wall : float;  (** summed over the round's operations *)
  evals : float list;
  updates : float list;
  acc : M.account;
}

(* The batch path's restart: every program of the round brought back
   from its persisted form (text, image) to a state ready to evaluate. *)
let restart ops =
  Gc.full_major ();
  let t0 = M.now () in
  List.iter
    (fun op ->
      if op.kind = Eval then begin
        ignore (Parser.parse_program op.program.text);
        Option.iter (fun bytes -> ignore (Db_snapshot.read bytes 0)) op.program.image
      end)
    ops;
  M.now () -. t0

let run workload ~seed ~seconds ~trace ~dir =
  let setup () =
    let t0 = M.now () in
    let make_ops = workload ~seed ~dir in
    (M.now () -. t0, make_ops)
  in
  let first, make_ops = setup () in
  let ops = make_ops () in
  (* One more set-up and one restart after every round: these samples
     then spread over the run as the rounds do, and their medians ride
     out the host's slow and fast spells alike. *)
  let setups = ref [ first ] and restarts = ref [] and calibrations = ref [] in
  let between () =
    setups := fst (setup ()) :: !setups;
    restarts := restart ops :: !restarts;
    calibrations := M.calibrate ~domains:1 :: !calibrations
  in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 in
  let round traced () =
    let acc = M.account () in
    let evals = ref [] and updates = ref [] in
    List.iter
      (fun op ->
        incr attempted;
        let telemetry = if traced then Telemetry.create () else Telemetry.none in
        (* Each operation stands for one `gbc run` process, which starts
           with an empty heap: the garbage of the one before is collected
           outside the timing, not charged to whichever run comes next. *)
        Gc.full_major ();
        let t0 = M.now () in
        match evaluate acc ~telemetry op.program with
        | exception e ->
          Printf.eprintf "perfbench: %s raised %s\n%!" op.program.label (Printexc.to_string e);
          incr failed
        | model, text ->
          let wall = M.now () -. t0 in
          List.iter (fun (k, v) -> M.add acc ("telemetry." ^ k) (float_of_int v)) (Telemetry.totals telemetry);
          if not (try op.check model text with _ -> false) then begin
            Printf.eprintf "perfbench: %s: output check failed\n%!" op.program.label;
            incr failed;
            incr wrong
          end;
          (match op.kind with Eval -> evals := wall :: !evals | Update -> updates := wall :: !updates))
      ops;
    between ();
    { wall = M.sum (!evals @ !updates); evals = !evals; updates = !updates; acc }
  in
  let metrics =
    if not trace then begin
      let rs = M.rounds_for seconds (round false) in
      (* A round holds a few runs of different programs, so a percentile
         over them would jump from one program to another: a round's p50
         is the mean of its runs of a kind, and the figure is the median
         over rounds.  Every figure is a median over rounds, so a slow
         spell of the host during part of the run moves none of them. *)
      let per_round kind = 1000.0 *. M.median (List.map (fun r -> M.mean (kind r)) rs) in
      let wall = M.median (List.map (fun r -> r.wall) rs) in
      [ ("setup_s", M.median !setups);
        ("run_wall_s", wall);
        ("peak_heap_mb", M.peak_heap_mb ());
        ("serve_rps", float_of_int (List.length ops) /. wall);
        ("eval_p50_ms", per_round (fun r -> r.evals));
        ("update_p50_ms", per_round (fun r -> r.updates));
        ("recovery_s", M.median !restarts) ]
    end
    else begin
      let plain = M.rounds_for (seconds /. 2.0) (round false) in
      let traced = M.rounds_for (seconds /. 2.0) (round true) in
      let n = float_of_int (List.length traced) in
      let total name = M.sum (List.map (fun r -> M.get r.acc name) traced) in
      let per_round name = total name /. n in
      let ratio a b = if b > 0.0 then a /. b else 0.0 in
      let layers =
        [ "parser.parse_s"; "stage.analyze_s"; "db_snapshot.read_s"; "stage_engine.run_s"; "pretty.render_s" ]
      in
      let wall = M.median (List.map (fun r -> r.wall) traced) in
      let pops = total "telemetry.pops" in
      List.map (fun l -> (l, per_round l)) layers
      @ [ ("db_snapshot.image_bytes", ratio (total "db_snapshot.image_bytes") (total "db_snapshot.reads"));
          ("stage_engine.minor_words_per_fact", ratio (total "stage_engine.minor_words") (total "stage_engine.new_facts"));
          ("stage_engine.gamma_steps", per_round "telemetry.gamma_steps");
          ("stage_engine.iterations", per_round "telemetry.iterations");
          ("stage_engine.derived", per_round "telemetry.derived");
          ("stage_engine.delta_tuples", per_round "telemetry.delta_tuples");
          ("rql.pushes", per_round "telemetry.pushes");
          ("rql.pops", per_round "telemetry.pops");
          ("rql.shadowed", per_round "telemetry.shadowed");
          ("rql.stale", per_round "telemetry.stale");
          ("rql.fired_per_pop", ratio (pops -. total "telemetry.stale" -. total "telemetry.revalidations") pops);
          ("relation.flat_fact_share", ratio (total "relation.flat_facts") (total "relation.facts"));
          ("pretty.bytes", per_round "pretty.bytes");
          ("trace.wall_s", wall);
          ("trace.layer_coverage_pct", 100.0 *. ratio (M.sum (List.map per_round layers)) wall);
          ( "trace.overhead_pct",
            100.0 *. (ratio wall (M.median (List.map (fun r -> r.wall) plain)) -. 1.0) ) ]
    end
  in
  { M.attempted = !attempted; failed = !failed; wrong = !wrong; metrics; calibrations = !calibrations }
