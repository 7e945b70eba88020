type row = {
  people : int;
  snps : int;
  auc : float;
  accuracy : float;
  mean_member : float;
  mean_outsider : float;
}

let measure rng ~people ~snps =
  let g = Dataset.Synth.genotype_study rng ~people ~snps () in
  let e = Attacks.Membership.evaluate g in
  {
    people;
    snps;
    auc = e.Attacks.Membership.auc;
    accuracy = e.Attacks.Membership.accuracy;
    mean_member = e.Attacks.Membership.mean_member;
    mean_outsider = e.Attacks.Membership.mean_outsider;
  }

let run ~scale rng =
  let people, snp_counts =
    match scale with
    | Common.Quick -> (60, [ 50; 500 ])
    | Common.Full -> (100, [ 10; 50; 200; 1000; 5000 ])
  in
  List.map (fun snps -> measure rng ~people ~snps) snp_counts

let print ~scale rng fmt =
  Common.banner fmt ~id:"E11"
    ~title:"Membership inference from aggregates (Homer et al.)"
    ~claim:
      "Aggregate allele frequencies of a study pool suffice to infer whether \
       a given person's data was included — accuracy grows with the number \
       of published attributes.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:[ "pool"; "SNPs"; "AUC"; "accuracy"; "mean T (member)"; "mean T (outsider)" ]
    (List.map
       (fun r ->
         [
           string_of_int r.people;
           string_of_int r.snps;
           Printf.sprintf "%.3f" r.auc;
           Common.pct r.accuracy;
           Printf.sprintf "%.2f" r.mean_member;
           Printf.sprintf "%.2f" r.mean_outsider;
         ])
       rows)
