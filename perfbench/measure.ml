(* Clocks, sample statistics, layer accounts and scratch files shared by
   the workloads. *)

let now = Unix.gettimeofday

(* ---------------- samples ---------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* ---------------- runs ---------------- *)

(* What a workload reports: the operations it attempted, how many failed,
   how many of those gave a wrong answer, and its metrics by name. *)
type outcome = {
  attempted : int;
  failed : int;  (** operations that raised or gave a wrong answer *)
  wrong : int;  (** operations whose output check failed *)
  metrics : (string * float) list;  (** as measured *)
  calibrations : float list;  (** [calibrate]'s samples, one per round *)
}

(* Run [round] until [seconds] have passed, at least once; returns the
   rounds' results in order. *)
let rounds_for seconds round =
  let t0 = now () in
  let rec go acc =
    let acc = round () :: acc in
    if now () -. t0 >= seconds then List.rev acc else go acc
  in
  go []

(* ---------------- layer accounts ---------------- *)

(* Time spent inside calls to one layer's public functions, and counts
   read from the counters the program exposes, keyed by metric name. *)
type account = (string, float) Hashtbl.t

let account () : account = Hashtbl.create 32
let add (acc : account) name v = Hashtbl.replace acc name (v +. Option.value (Hashtbl.find_opt acc name) ~default:0.0)
let get (acc : account) name = Option.value (Hashtbl.find_opt acc name) ~default:0.0

(* [timed acc name f]: run [f], charging its wall time to [name]. *)
let timed acc name f =
  let t0 = now () in
  let r = f () in
  add acc name (now () -. t0);
  r

(* ---------------- process figures ---------------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ---------------- scratch files ---------------- *)

(* All files a run writes live under this directory of the checkout;
   each process uses its own subdirectory and removes it on exit. *)
let work_root = ".perfbench_work"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc e -> acc + dir_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let rec copy_tree src dst =
  match Unix.lstat src with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Unix.mkdir dst 0o755;
    Array.iter (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e)) (Sys.readdir src)
  | _ -> Out_channel.with_open_bin dst (fun oc -> output_string oc (In_channel.with_open_bin src In_channel.input_all))

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path data = Out_channel.with_open_bin path (fun oc -> output_string oc data)

(* ---------------- model text ---------------- *)

(* The argument lists of [pred(...)] lines in a rendered model, split on
   ", ".  Only used for predicates whose arguments are plain constants. *)
let facts_in_text text pred =
  let prefix = pred ^ "(" in
  let pl = String.length prefix in
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let n = String.length line in
         if n > pl + 2 && String.sub line 0 pl = prefix && String.sub line (n - 2) 2 =")." then
           Some (String.split_on_char ',' (String.sub line pl (n - pl - 2)) |> List.map String.trim)
         else None)

let count_lines text =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) text;
  !n

(* ---------------- host speed ---------------- *)

(* The host this benchmark runs on is shared: its speed for a fixed
   CPU-bound loop drifts by half from one minute to the next, and every
   time a run measures drifts with it.  [calibration_work] is a fixed
   piece of work made only of the OCaml runtime and standard library
   (random reads over a large array, hash tables of small tuples,
   sorting, printing into a buffer: the memory traffic, allocation and
   output of the engine and the printer), so no change to the program
   moves it.  Every workload calls [calibrate] once per round and
   reports its times scaled by [reference_calibration_s] over the run's
   median calibration time: seconds at the host speed the reference was
   measured at. *)
let calibration_work () =
  let n = 1 lsl 21 in
  (* random reads over a 16 MB array: the memory traffic of big relations *)
  let a = Array.init n (fun i -> (i * 2654435761) land (n - 1)) in
  let s = ref 0 and j = ref 0 in
  for _ = 1 to 1_000_000 do
    j := a.(!j lxor (!s land 7));
    s := !s + !j
  done;
  (* hash tables of small tuples, sorting, printing *)
  let m = 40_000 in
  let h = Hashtbl.create 1024 in
  for i = 0 to m - 1 do
    Hashtbl.replace h (a.(i) * 31) (i, string_of_int i)
  done;
  let l = List.sort compare (List.init m (fun i -> (a.(i), i))) in
  let buf = Buffer.create (1 lsl 16) in
  List.iter (fun (k, i) -> Printf.bprintf buf "c(%d, %d).\n" k i) l;
  !s + Hashtbl.length h + Buffer.length buf

(* What `main.exe --calibrate N` prints: the time [calibration_work]
   takes on N domains of one process at once.  The domains share the
   runtime's stop-the-world minor collections, as the daemon's do, so a
   host that lends the process fewer CPUs than it has domains stalls
   them all, as it stalls the daemon. *)
let calibration_sample domains =
  let work () = ignore (Sys.opaque_identity (calibration_work ())) in
  let t0 = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join others;
  now () -. t0

(* One calibration sample on [domains] domains, taken in a fresh process
   so that the workload's heap does not weigh on it. *)
let calibrate ~domains =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--calibrate"; string_of_int domains |]
  in
  let line = Fun.protect ~finally:(fun () -> ignore (Unix.close_process_in ic)) (fun () -> In_channel.input_line ic) in
  match Option.bind line float_of_string_opt with
  | Some t -> t
  | None -> failwith "calibration process printed no time"

(* About [calibrate]'s time on the host the reference figures in
   perfbench/README.md were measured on, when it was quiet. *)
let reference_calibration_s = 0.1

(* End-to-end figures brought to the reference host speed: times
   scale with the run's calibration time, rates inversely; memory is
   left as measured. *)
let at_reference_speed calibrations metrics =
  let k = reference_calibration_s /. median calibrations in
  List.map
    (fun (name, v) ->
      match name with
      | "peak_heap_mb" -> (name, v)
      | "serve_rps" -> (name, v /. k)
      | _ -> (name, v *. k))
    metrics
