(* In-memory span recorder for the traced run.

   A span is one call into a layer: its name, host start and end
   times, the span that caused it, and the job it belongs to.  Spans
   stay in memory until the run ends.  Each domain records through its
   own [recorder] (its stack of open spans); finished spans go to one
   shared list under a mutex, so fleet workers can record too. *)

type t = {
  id : int;
  parent : int;  (** 0 = no parent *)
  job : int;
  name : string;
  t0 : float;
  t1 : float;
}

type recorder = {
  on : bool;
  job : int;
  mutable stack : int list;  (** open span ids, innermost first *)
}

let now = Unix.gettimeofday
let next_id = Atomic.make 1
let lock = Mutex.create ()
let finished = ref []

let recorder ?parent ~on ~job () =
  { on; job; stack = Option.to_list parent }

let off = recorder ~on:false ~job:0 ()

(* The innermost open span: the parent of spans a fleet worker opens
   on behalf of this recorder. *)
let current r = match r.stack with id :: _ -> id | [] -> 0

let with_ r name f =
  if not r.on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = current r in
    r.stack <- id :: r.stack;
    let t0 = now () in
    let finish () =
      let s = { id; parent; job = r.job; name; t0; t1 = now () } in
      r.stack <- List.tl r.stack;
      Mutex.protect lock (fun () -> finished := s :: !finished)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Every span finished since the last [take], oldest first. *)
let take () =
  Mutex.protect lock (fun () ->
      let l = List.rev !finished in
      finished := [];
      l)

(* Length of the union of intervals clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let sorted =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
            let a = Float.max a lo and b = Float.min b hi in
            if b > a then Some (a, b) else None)
         intervals)
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
         if a > cb then (total +. (cb -. ca), (a, b))
         else (total, (ca, Float.max cb b)))
      (0.0, (lo, lo))
      sorted
  in
  total +. (snd last -. fst last)

type totals = {
  calls : int;
  incl_s : float;  (** summed span durations *)
  self_s : float;  (** summed durations minus the time children cover *)
}

(* Per-name totals.  A span's self time is its duration minus the part
   of its interval covered by its children; children of a fleet span
   run in parallel, so their union is subtracted, not their sum. *)
let totals spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
       let dur = s.t1 -. s.t0 in
       let self =
         dur -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)
       in
       let prev =
         Option.value (Hashtbl.find_opt tbl s.name)
           ~default:{ calls = 0; incl_s = 0.0; self_s = 0.0 }
       in
       Hashtbl.replace tbl s.name
         { calls = prev.calls + 1; incl_s = prev.incl_s +. dur;
           self_s = prev.self_s +. self })
    spans;
  tbl

let to_ndjson spans =
  let b = Buffer.create (64 * List.length spans) in
  List.iter
    (fun s ->
       Printf.bprintf b
         "{\"id\":%d,\"parent\":%d,\"job\":%d,\"name\":%S,\"start\":%.9f,\
          \"end\":%.9f}\n"
         s.id s.parent s.job s.name s.t0 s.t1)
    spans;
  Buffer.contents b
