module Special = Nakamoto_numerics.Special
module Chain = Nakamoto_markov.Chain
module Round_state = Nakamoto_sim.Round_state

type state = Recent of int | Deep | Deep_recent of int

let state_count ~delta = (2 * delta) + 1

let check_delta delta =
  if delta < 1 then invalid_arg "Suffix_chain: delta must be >= 1"

let index_of_state ~delta s =
  check_delta delta;
  match s with
  | Recent a ->
    if a < 0 || a >= delta then invalid_arg "Suffix_chain: Recent index range";
    a
  | Deep -> delta
  | Deep_recent b ->
    if b < 0 || b >= delta then
      invalid_arg "Suffix_chain: Deep_recent index range";
    delta + 1 + b

let state_of_index ~delta i =
  check_delta delta;
  if i < 0 || i > 2 * delta then invalid_arg "Suffix_chain: index out of range";
  if i < delta then Recent i
  else if i = delta then Deep
  else Deep_recent (i - delta - 1)

let state_label = function
  | Recent 0 -> "HN<=D-1.H"
  | Recent a -> Printf.sprintf "HN<=D-1.H.N^%d" a
  | Deep -> "HN>=D"
  | Deep_recent 0 -> "HN>=D.H"
  | Deep_recent b -> Printf.sprintf "HN>=D.H.N^%d" b

(* Transition rules ①–④ of Section V-A. *)
let step ~delta s ~h =
  check_delta delta;
  match (s, h) with
  | (Recent _ | Deep_recent _), true -> Recent 0
  | Deep, true -> Deep_recent 0
  | Deep, false -> Deep
  | Recent a, false -> if a = delta - 1 then Deep else Recent (a + 1)
  | Deep_recent b, false -> if b = delta - 1 then Deep else Deep_recent (b + 1)

let check_alpha alpha =
  if not (alpha > 0. && alpha < 1.) then
    invalid_arg "Suffix_chain: alpha must lie in (0, 1)"

let transitions ~delta ~alpha i =
  check_delta delta;
  check_alpha alpha;
  let s = state_of_index ~delta i in
  let idx s = index_of_state ~delta s in
  [
    (idx (step ~delta s ~h:true), alpha);
    (idx (step ~delta s ~h:false), 1. -. alpha);
  ]

let build ~delta ~alpha =
  check_delta delta;
  check_alpha alpha;
  Chain.of_fn
    ~labels:(fun i -> state_label (state_of_index ~delta i))
    ~size:(state_count ~delta) (transitions ~delta ~alpha)

let build_sparse ~delta ~alpha =
  check_delta delta;
  check_alpha alpha;
  let n = state_count ~delta in
  Nakamoto_markov.Sparse.of_fn ~rows:n ~cols:n (transitions ~delta ~alpha)

let stationary_closed_form ~delta ~alpha =
  check_delta delta;
  check_alpha alpha;
  let abar = 1. -. alpha in
  let abar_delta = abar ** float_of_int delta in
  let pi = Array.make (state_count ~delta) 0. in
  for a = 0 to delta - 1 do
    (* Eq. (37a)-(37b). *)
    pi.(index_of_state ~delta (Recent a)) <-
      alpha *. (1. -. abar_delta) *. (abar ** float_of_int a)
  done;
  pi.(index_of_state ~delta Deep) <- abar_delta;
  for b = 0 to delta - 1 do
    (* Eq. (37d). *)
    pi.(index_of_state ~delta (Deep_recent b)) <-
      alpha *. abar_delta *. (abar ** float_of_int b)
  done;
  pi

let log_stationary ~delta ~log_abar ~state =
  if delta < 1. then invalid_arg "Suffix_chain.log_stationary: delta < 1";
  if log_abar >= 0. then
    invalid_arg "Suffix_chain.log_stationary: log_abar must be negative";
  let in_range x = x >= 0. && x < delta in
  let log_alpha = Special.log_one_minus_exp log_abar in
  let log_abar_delta = delta *. log_abar in
  match state with
  | Recent a ->
    if not (in_range (float_of_int a)) then
      invalid_arg "Suffix_chain.log_stationary: Recent index range";
    log_alpha
    +. Special.log_one_minus_exp log_abar_delta
    +. (float_of_int a *. log_abar)
  | Deep -> log_abar_delta
  | Deep_recent b ->
    if not (in_range (float_of_int b)) then
      invalid_arg "Suffix_chain.log_stationary: Deep_recent index range";
    log_alpha +. log_abar_delta +. (float_of_int b *. log_abar)

let classify_series ~delta states =
  check_delta delta;
  let current = ref None in
  let h_seen = ref false in
  let n_run = ref 0 in
  Array.map
    (fun s ->
      (if Round_state.is_h s then begin
         (match !current with
         | Some st -> current := Some (step ~delta st ~h:true)
         | None ->
           (* A second H with the last gap <= delta-1 pins the class. *)
           if !h_seen then current := Some (Recent 0));
         h_seen := true;
         n_run := 0
       end
       else
         match !current with
         | Some st -> current := Some (step ~delta st ~h:false)
         | None ->
           if !h_seen then begin
             incr n_run;
             (* Delta consecutive N after an H pins the class to Deep. *)
             if !n_run >= delta then current := Some Deep
           end);
      !current)
    states

let to_dot ~delta ~alpha =
  check_delta delta;
  check_alpha alpha;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph suffix_chain {\n  rankdir=LR;\n";
  for i = 0 to state_count ~delta - 1 do
    let s = state_of_index ~delta i in
    Buffer.add_string buf
      (Printf.sprintf "  s%d [label=\"%s\"];\n" i (state_label s))
  done;
  for i = 0 to state_count ~delta - 1 do
    let s = state_of_index ~delta i in
    let add ~h ~p =
      let j = index_of_state ~delta (step ~delta s ~h) in
      Buffer.add_string buf
        (Printf.sprintf "  s%d -> s%d [label=\"%s %.4g\"];\n" i j
           (if h then "H" else "N")
           p)
    in
    add ~h:true ~p:alpha;
    add ~h:false ~p:(1. -. alpha)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
