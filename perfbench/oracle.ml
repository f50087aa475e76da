(* Answers computed apart from the program under test, used to check
   every model the benchmark receives.  Plain imperative algorithms over
   edge arrays; none of them calls the Datalog engines. *)

(* A minimal binary min-heap of (key, value) pairs. *)
module Heap = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

  let create () = { keys = Array.make 64 0; vals = Array.make 64 0; size = 0 }

  let swap h i j =
    let k = h.keys.(i) and v = h.vals.(i) in
    h.keys.(i) <- h.keys.(j);
    h.vals.(i) <- h.vals.(j);
    h.keys.(j) <- k;
    h.vals.(j) <- v

  let push h k v =
    if h.size = Array.length h.keys then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      h.keys <- grow h.keys;
      h.vals <- grow h.vals
    end;
    h.keys.(h.size) <- k;
    h.vals.(h.size) <- v;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.keys.((!i - 1) / 2) > h.keys.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* Remove and return the least pair. *)
  let pop h =
    let k = h.keys.(0) and v = h.vals.(0) in
    h.size <- h.size - 1;
    h.keys.(0) <- h.keys.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.size && h.keys.(l) < h.keys.(!m) then m := l;
      if r < h.size && h.keys.(r) < h.keys.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        swap h !i !m;
        i := !m
      end
    done;
    (k, v)
end

type edge = { src : int; dst : int; cost : int }

(* Outgoing adjacency of directed edges. *)
let adjacency n edges =
  let adj = Array.make n [] in
  List.iter (fun e -> adj.(e.src) <- e :: adj.(e.src)) edges;
  adj

let both_ways edges = List.concat_map (fun e -> [ e; { src = e.dst; dst = e.src; cost = e.cost } ]) edges

(* Union-find with path halving. *)
let find parent x =
  let x = ref x in
  while parent.(!x) <> !x do
    parent.(!x) <- parent.(parent.(!x));
    x := parent.(!x)
  done;
  !x

(* Weight of a minimum spanning forest of undirected edges (Kruskal). *)
let mst_weight n edges =
  let parent = Array.init n Fun.id in
  List.sort (fun a b -> compare a.cost b.cost) edges
  |> List.fold_left
       (fun w e ->
         let a = find parent e.src and b = find parent e.dst in
         if a = b then w
         else begin
           parent.(a) <- b;
           w + e.cost
         end)
       0

(* [n - 1] edges that close no cycle: a spanning tree of [0, n). *)
let is_spanning_tree n edges =
  let parent = Array.init n Fun.id in
  List.length edges = n - 1
  && List.for_all
       (fun e ->
         e.src >= 0 && e.src < n && e.dst >= 0 && e.dst < n
         &&
         let a = find parent e.src and b = find parent e.dst in
         a <> b
         && begin
              parent.(a) <- b;
              true
            end)
       edges

(* Shortest distances from [root] over directed edges; [-1] marks an
   unreachable node. *)
let dijkstra n edges root =
  let adj = adjacency n edges in
  let dist = Array.make n (-1) in
  let h = Heap.create () in
  Heap.push h 0 root;
  while h.Heap.size > 0 do
    let d, x = Heap.pop h in
    if dist.(x) < 0 then begin
      dist.(x) <- d;
      List.iter (fun e -> if dist.(e.dst) < 0 then Heap.push h (d + e.cost) e.dst) adj.(x)
    end
  done;
  dist

(* Greedy tree grown from [root] over directed edges, always taking the
   cheapest edge into a node not yet in the tree (Prim on an undirected
   graph stored both ways).  Returns (weight, edges taken). *)
let greedy_tree n edges root =
  let es = Array.of_list edges in
  let adj = Array.make n [] in
  Array.iteri (fun i e -> adj.(e.src) <- i :: adj.(e.src)) es;
  let inside = Array.make n false in
  let h = Heap.create () in
  let enter x =
    inside.(x) <- true;
    List.iter (fun i -> Heap.push h es.(i).cost i) adj.(x)
  in
  enter root;
  let weight = ref 0 and taken = ref 0 in
  while h.Heap.size > 0 do
    let c, i = Heap.pop h in
    if not inside.(es.(i).dst) then begin
      weight := !weight + c;
      incr taken;
      enter es.(i).dst
    end
  done;
  (!weight, !taken)

(* Nodes reachable from [src] by one or more directed edges, ascending. *)
let reachable n edges src =
  let adj = adjacency n edges in
  let seen = Array.make n false in
  let queue = Queue.create () in
  List.iter (fun e -> Queue.push e.dst queue) adj.(src);
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    if not seen.(x) then begin
      seen.(x) <- true;
      List.iter (fun e -> if not seen.(e.dst) then Queue.push e.dst queue) adj.(x)
    end
  done;
  List.filter (fun x -> seen.(x)) (List.init n Fun.id)
