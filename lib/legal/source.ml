type t = {
  id : string;
  title : string;
  jurisdiction : string;
  year : int;
  quote : string;
}

let gdpr_article_1 =
  {
    id = "GDPR-Art1";
    title = "General Data Protection Regulation, Article 1";
    jurisdiction = "EU";
    year = 2016;
    quote =
      "This Regulation lays down rules relating to the protection of natural \
       persons with regard to the processing of personal data and rules \
       relating to the free movement of personal data.";
  }

let gdpr_article_4 =
  {
    id = "GDPR-Art4";
    title = "General Data Protection Regulation, Article 4";
    jurisdiction = "EU";
    year = 2016;
    quote =
      "'Personal data' means any information relating to an identified or \
       identifiable natural person ('data subject'); an identifiable natural \
       person is one who can be identified, directly or indirectly.";
  }

let gdpr_recital_26 =
  {
    id = "GDPR-Rec26";
    title = "General Data Protection Regulation, Recital 26";
    jurisdiction = "EU";
    year = 2016;
    quote =
      "To determine whether a natural person is identifiable, account should \
       be taken of all the means reasonably likely to be used, such as \
       singling out, either by the controller or by another person to \
       identify the natural person directly or indirectly. [...] The \
       principles of data protection should therefore not apply to anonymous \
       information.";
  }

let gdpr_article_17 =
  {
    id = "GDPR-Art17";
    title = "General Data Protection Regulation, Article 17 (right to erasure)";
    jurisdiction = "EU";
    year = 2016;
    quote =
      "The data subject shall have the right to obtain from the controller \
       the erasure of personal data concerning him or her without undue \
       delay.";
  }

let wp29_personal_data =
  {
    id = "WP29-2007";
    title = "Article 29 Working Party Opinion 04/2007 on the Concept of Personal Data";
    jurisdiction = "EU";
    year = 2007;
    quote =
      "A name may itself not be necessary in all cases to identify an \
       individual. This may happen when other identifiers are used to single \
       someone out: the possibility to isolate some or all records which \
       identify an individual in the dataset.";
  }

let wp29_anonymisation =
  {
    id = "WP29-2014";
    title = "Article 29 Working Party Opinion 05/2014 on Anonymisation Techniques";
    jurisdiction = "EU";
    year = 2014;
    quote =
      "Asking 'Is singling out still a risk?' the Opinion answers 'no' for \
       k-anonymity and for l-diversity, and 'may not' for differential \
       privacy.";
  }

let hipaa_privacy_rule =
  {
    id = "HIPAA";
    title = "HIPAA Privacy Rule, 45 C.F.R. Parts 160/164";
    jurisdiction = "US";
    year = 2003;
    quote =
      "De-identified health information is unrestricted; the safe-harbor \
       method enumerates 18 identifiers to be redacted, and the processor \
       must have no actual knowledge that the remaining information could be \
       used to identify the individual.";
  }

let ferpa =
  {
    id = "FERPA";
    title = "Family Educational Rights and Privacy Act, 20 U.S.C. 1232g";
    jurisdiction = "US";
    year = 1974;
    quote =
      "Protects personally identifiable information in education records.";
  }

let title_13 =
  {
    id = "Title13";
    title = "13 U.S.C. 9 (Census confidentiality)";
    jurisdiction = "US";
    year = 1954;
    quote =
      "Prohibits any publication whereby the data furnished by any \
       particular establishment or individual under this title can be \
       identified.";
  }

let all =
  [
    gdpr_article_1;
    gdpr_article_4;
    gdpr_article_17;
    gdpr_recital_26;
    wp29_personal_data;
    wp29_anonymisation;
    hipaa_privacy_rule;
    ferpa;
    title_13;
  ]
